from __future__ import annotations

import functools
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import unitforge
from unitforge.cascade import (
    AdapterError, CascadeError, PipelineSpec,
    filter_code_switch, filter_min_length, get_field, levenshtein,
    make_adapter, run_cascade, set_field,
)
from unitforge import corpus
from unitforge.corpus import TSV_COLUMNS, Manifest, ManifestError, Utterance
from unitforge.evalbleu import BleuError

SRC = Path(unitforge.__file__).resolve().parent.parent


@functools.lru_cache(maxsize=None)
def lev_recursive(a: tuple, b: tuple) -> int:
    """Textbook recursion over the edit-distance definition."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    return min(
        lev_recursive(a[1:], b) + 1,
        lev_recursive(a, b[1:]) + 1,
        lev_recursive(a[1:], b[1:]) + (a[0] != b[0]),
    )


def dp_levenshtein(a, b) -> int:
    """The cell-by-cell dynamic program, kept as the oracle."""
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        current = [i]
        for j, y in enumerate(b, start=1):
            cost = 0 if x == y else 1
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost))
        previous = current
    return previous[-1]


def dp_levenshtein_batch(pairs) -> list[int]:
    """The same dynamic program, one DP row of many pairs per numpy step.

    Pairs are padded to common lengths; padding only reaches cells past a
    pair's own last row and column. Within a row the left-neighbour chain
    ``cur[j] = min(cand[j], cur[j-1] + 1)`` is
    ``j + cummin(cand[k] - k for k <= j)``.
    """
    order = sorted(range(len(pairs)), key=lambda p: -len(pairs[p][0]))
    pairs = [pairs[p] for p in order]
    codes: dict = {}
    la = len(pairs[0][0])
    lb = max(len(b) for _, b in pairs)
    a_codes = np.full((len(pairs), la), -1, dtype=np.int16)
    b_codes = np.full((len(pairs), lb), -2, dtype=np.int16)
    for p, (a, b) in enumerate(pairs):
        a_codes[p, :len(a)] = [codes.setdefault(x, len(codes)) for x in a]
        b_codes[p, :len(b)] = [codes.setdefault(y, len(codes)) for y in b]
    len_a = np.array([len(a) for a, _ in pairs])
    len_b = np.array([len(b) for _, b in pairs])
    steps = np.arange(lb + 1, dtype=np.int16)
    previous = np.tile(steps, (len(pairs), 1))
    result = np.where(len_a == 0, len_b, -1)
    for i in range(1, la + 1):
        live = int(np.count_nonzero(len_a >= i))  # pairs are sorted by len(a), longest first
        current = np.empty_like(previous[:live])
        current[:, 0] = i
        np.minimum(previous[:live, 1:] + 1,
                   previous[:live, :-1] + (b_codes[:live] != a_codes[:live, i - 1:i]),
                   out=current[:, 1:])
        previous = np.minimum.accumulate(current - steps, axis=1) + steps
        done = np.flatnonzero(len_a[:live] == i)
        result[done] = previous[done, len_b[done]]
    out = [0] * len(pairs)
    for p, value in zip(order, result.tolist()):
        out[p] = value
    return out


def random_pairs(rng: random.Random, count: int, max_len: int):
    pairs = []
    for _ in range(count):
        alphabet = rng.randint(1, 6)
        pairs.append(tuple([rng.randrange(alphabet) for _ in range(rng.randint(0, max_len))]
                           for _ in range(2)))
    return pairs


class TestLevenshtein:
    def test_identical(self):
        assert levenshtein(list("abc"), list("abc")) == 0

    def test_all_inserts(self):
        assert levenshtein([], list("abc")) == 3

    def test_kitten_sitting(self):
        assert levenshtein(list("kitten"), list("sitting")) == 3

    def test_word_tokens(self):
        assert levenshtein(["the", "cat", "sat"], ["the", "dog", "sat"]) == 1

    @given(st.lists(st.sampled_from("abc"), max_size=8),
           st.lists(st.sampled_from("abc"), max_size=8))
    def test_matches_recursion(self, a, b):
        assert levenshtein(a, b) == lev_recursive(tuple(a), tuple(b))

    @given(st.lists(st.sampled_from("ab"), max_size=6),
           st.lists(st.sampled_from("ab"), max_size=6),
           st.lists(st.sampled_from("ab"), max_size=6))
    def test_metric_properties(self, a, b, c):
        assert levenshtein(a, b) == levenshtein(b, a)
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)
        assert (levenshtein(a, b) == 0) == (a == b)

    def test_batch_oracle_matches_dp(self):
        pairs = random_pairs(random.Random(3), 300, 40)
        assert dp_levenshtein_batch(pairs) == [dp_levenshtein(a, b) for a, b in pairs]

    def test_random_pairs_match_dp(self):
        # Lengths above 64 span several machine words of the bit vectors.
        # Mutation check: without the `| 1` shifted into the horizontal
        # delta (the global first row), this test fails.
        pairs = random_pairs(random.Random(11), 5000, 200)
        assert [levenshtein(a, b) for a, b in pairs] == dp_levenshtein_batch(pairs)

    def test_string_tokens_and_edges(self):
        rng = random.Random(5)
        words = ["tai5", "lo5", "su1", "ang5", "gi2", "a"]
        cases = [([], []), ([], ["a"]), (["a"] * 70, []), ([], list(range(130)))]
        for n in (1, 5, 63, 64, 65, 129, 200):
            seq = [rng.choice(words) for _ in range(n)]
            other = [rng.choice(words) for _ in range(rng.randint(0, 200))]
            cases += [(seq, seq), (seq, seq[::-1]), (seq, other), ("".join(seq), "".join(other))]
        for a, b in cases:
            assert levenshtein(a, b) == levenshtein(b, a) == dp_levenshtein(a, b), (a, b)

    def test_shared_affixes_and_equal_sequences(self):
        rng = random.Random(23)
        words = ["tai5", "lo5", "su1", "ang5", "gi2", "a"]
        cases = [("aa", "a"), ("aba", "a"), ("abab", "ab"), ("abcabc", "abc"),
                 ("xay", "xy"), ("xaay", "xay"), ("ab", "ba"), ("aXa", "aYa"),
                 (list("aaaa"), list("aa")), ((1, 2, 1), [1, 1])]
        for _ in range(400):
            prefix = [rng.choice(words) for _ in range(rng.choice((0, 1, 3, 70)))]
            suffix = [rng.choice(words) for _ in range(rng.choice((0, 1, 3, 70)))]
            cores = [[rng.choice(words) for _ in range(rng.randint(0, 6))] for _ in range(2)]
            a, b = (prefix + core + suffix for core in cores)
            cases += [(a, b), (a, list(a)), (a, tuple(a)), ("".join(a), "".join(b))]
        for a, b in cases:
            assert levenshtein(a, b) == levenshtein(b, a) == dp_levenshtein(a, b), (a, b)


class TestFilters:
    def test_code_switch_identical_kept(self):
        assert filter_code_switch("你好嗎", "你好嗎",
                                  max_norm_dist=0.0)

    def test_code_switch_disjoint_dropped(self):
        assert not filter_code_switch("abcde", "vwxyz", max_norm_dist=0.99)

    def test_code_switch_boundary(self):
        subtitle = "0123456789"
        asr = "0123456xyz"  # 3 substitutions -> distance 3, normalized 0.30
        assert levenshtein(list(asr), list(subtitle)) == 3
        assert filter_code_switch(asr, subtitle, max_norm_dist=0.30)
        assert not filter_code_switch(asr, subtitle, max_norm_dist=0.29)

    def test_code_switch_equal_texts(self):
        # argument errors still raise on equal texts
        with pytest.raises(BleuError, match="unknown tokenizer"):
            filter_code_switch("a", "a", tokenizer="word14b")
        with pytest.raises(CascadeError, match="max_norm_dist"):
            filter_code_switch("a", "a", max_norm_dist=1.5)
        for text in ("", "tsa1 ang5", "Tâi-lô  pe̍h"):
            for tokenizer in ("char", "tailo_syllable", "tailo_initial_final", "word13a"):
                assert filter_code_switch(text, text, tokenizer=tokenizer, max_norm_dist=0.0)

    def test_min_length_boundary(self):
        assert not filter_min_length("這是"[:2], min_chars=3)  # 2 chars
        assert filter_min_length("這是話", min_chars=3)    # exactly 3
        assert not filter_min_length("", min_chars=1)

    def test_min_length_ignores_whitespace(self):
        assert not filter_min_length("a  b", min_chars=3)
        assert filter_min_length("a b c", min_chars=3)

    def test_min_length_counts_as_isspace(self):
        # every whitespace code point, alone and between other characters
        spaces = [chr(cp) for cp in range(sys.maxunicode + 1) if chr(cp).isspace()]
        mixed = "a" + "x\u200b".join(spaces) + "字 \u00a0b\u3000c\x1c"
        for text in spaces + ["".join(spaces), mixed]:
            want = sum(1 for ch in text if not ch.isspace())
            assert filter_min_length(text, min_chars=want)
            assert not filter_min_length(text, min_chars=want + 1)


def man(*texts, **extra_fields):
    records = []
    for i, text in enumerate(texts):
        records.append(Utterance(id=f"u{i}", text=text,
                                 extra={k: v[i] for k, v in extra_fields.items()}))
    return Manifest(records=tuple(records))


def adapters_for(spec: PipelineSpec, cache_dir=None):
    return {name: make_adapter("stage", name, endpoint, cache_dir=cache_dir)
            for name, endpoint in spec.adapters.items()}


class CountingExec:
    """A child process for ``exec:`` endpoints that upper-cases or
    reverses each line and logs the lines of every run."""

    def __init__(self, tmp_path):
        self.log = tmp_path / "runs.jsonl"
        self.script = tmp_path / "count.py"
        self.script.write_text(
            "import json, sys\n"
            "lines = sys.stdin.read().split('\\n')[:-1]\n"
            "with open(%r, 'a', encoding='utf-8') as fh: fh.write(json.dumps(lines) + '\\n')\n"
            "for line in lines: print(line.upper() if sys.argv[1] == 'upper' else line[::-1])\n"
            % str(self.log))

    def endpoint(self, mode: str = "upper") -> str:
        return f"exec:{sys.executable} {self.script} {mode}"

    def runs(self) -> list[list[str]]:
        if not self.log.exists():
            return []
        return [json.loads(row) for row in self.log.read_text(encoding="utf-8").splitlines()]


class TestAdapters:
    def test_mock_identity(self):
        adapter = make_adapter("mt", "echo", "mock:identity")
        assert adapter.run(["a", "b"]) == ["a", "b"]

    def test_mock_table(self, tmp_path):
        table = tmp_path / "table.tsv"
        table.write_text("hello\tHELLO\nbye\tBYE\n")
        adapter = make_adapter("mt", "tab", f"mock:{table}")
        assert adapter.run(["bye", "hello"]) == ["BYE", "HELLO"]

    def test_mock_table_missing_key_raises_in_strict_run(self, tmp_path):
        table = tmp_path / "table.tsv"
        table.write_text("hello\tHELLO\n")
        adapter = make_adapter("mt", "tab", f"mock:{table}")
        with pytest.raises(AdapterError, match="1 input"):
            adapter.run(["hello", "unknown"])
        assert adapter.try_run(["hello", "unknown"]) == ["HELLO", None]

    def test_mock_fail_substring(self):
        adapter = make_adapter("mt", "flaky", "mock:fail:bad")
        assert adapter.try_run(["good", "bad apple"]) == ["good", None]

    def test_unknown_scheme(self):
        with pytest.raises(CascadeError, match="scheme"):
            make_adapter("mt", "x", "http://nope")

    def test_exec_line_protocol(self):
        cmd = f"{sys.executable} -c \"import sys; [print(l.strip().upper()) for l in sys.stdin]\""
        adapter = make_adapter("mt", "upper", f"exec:{cmd}")
        assert adapter.run(["hello", "world"]) == ["HELLO", "WORLD"]

    def test_exec_misaligned_output_fails(self):
        cmd = f"{sys.executable} -c \"print('only one line')\""
        adapter = make_adapter("mt", "bad", f"exec:{cmd}")
        assert adapter.try_run(["a", "b"]) == [None, None]

    def test_exec_nonzero_exit_fails(self):
        cmd = f"{sys.executable} -c \"import sys; sys.stdin.read(); print('A'); sys.exit(3)\""
        adapter = make_adapter("mt", "bad", f"exec:{cmd}")
        assert adapter.try_run(["a"]) == [None]

    def test_cache_round_trip(self, tmp_path):
        child = CountingExec(tmp_path)
        endpoint = child.endpoint()
        cache = tmp_path / "cache"
        first = make_adapter("mt", "up", endpoint, cache_dir=cache)
        assert first.run(["a", "b"]) == ["A", "B"]
        # a fresh adapter re-reads from the cache instead of invoking again
        second = make_adapter("mt", "up", endpoint, cache_dir=cache)
        assert second.run(["a", "b"]) == ["A", "B"]
        assert len(child.runs()) == 1

    def test_cache_keyed_by_adapter_name(self, tmp_path):
        child = CountingExec(tmp_path)
        endpoint = child.endpoint()
        cache = tmp_path / "cache"
        up = make_adapter("mt", "up", endpoint, cache_dir=cache)
        other = make_adapter("mt", "other", endpoint, cache_dir=cache)
        assert up.run(["MiXeD"]) == ["MIXED"]
        # same endpoint and input under another name: a miss, not up's entry
        assert other.run(["MiXeD"]) == ["MIXED"]
        assert len(child.runs()) == 2
        assert up.run(["MiXeD"]) == other.run(["MiXeD"]) == ["MIXED"]
        assert len(child.runs()) == 2

    def test_cache_keyed_by_endpoint(self, tmp_path):
        child = CountingExec(tmp_path)
        cache = tmp_path / "cache"
        first = make_adapter("mt", "mt", child.endpoint("upper"), cache_dir=cache)
        assert first.run(["hello"]) == ["HELLO"]
        repointed = make_adapter("mt", "mt", child.endpoint("reverse"), cache_dir=cache)
        assert repointed.run(["hello"]) == ["olleh"]
        assert first.run(["hello"]) == ["HELLO"]
        assert len(child.runs()) == 2

    def test_cache_layout_is_stable(self, tmp_path):
        # an entry planted at cache/kind/name/<sha256[:2]>/<sha256> of
        # kind NUL name NUL endpoint NUL input is served as is
        child = CountingExec(tmp_path)
        endpoint = child.endpoint()
        key = f"mt\x00up\x00{endpoint}\x00hello".encode("utf-8")
        digest = hashlib.sha256(key).hexdigest()
        entry = tmp_path / "cache" / "mt" / "up" / digest[:2] / digest
        entry.parent.mkdir(parents=True)
        entry.write_text("planted", encoding="utf-8")
        adapter = make_adapter("mt", "up", endpoint, cache_dir=tmp_path / "cache")
        assert adapter.run(["hello", "world"]) == ["planted", "WORLD"]
        assert child.runs() == [["world"]]
        digest = hashlib.sha256(f"mt\x00up\x00{endpoint}\x00world".encode("utf-8")).hexdigest()
        written = tmp_path / "cache" / "mt" / "up" / digest[:2] / digest
        assert written.read_text(encoding="utf-8") == "WORLD"

    def test_mock_ignores_cache_dir(self, tmp_path):
        table = tmp_path / "table.tsv"
        table.write_text("hello\tHELLO\n")
        cache = tmp_path / "cache"
        for endpoint, expected in (("mock:upper", "HELLO"), (f"mock:{table}", "HELLO"),
                                   ("mock:fail:x", "hello")):
            key = f"mt\x00mt\x00{endpoint}\x00hello".encode("utf-8")
            digest = hashlib.sha256(key).hexdigest()
            entry = cache / "mt" / "mt" / digest[:2] / digest
            entry.parent.mkdir(parents=True, exist_ok=True)
            entry.write_text("planted", encoding="utf-8")
            adapter = make_adapter("mt", "mt", endpoint, cache_dir=cache)
            # the function runs; an entry at the exec: layout is not served
            assert adapter.try_run(["hello", "bye"])[0] == expected
            entry.unlink()
            assert not [p for p in cache.rglob("*") if p.is_file()]

    def test_line_breaks_fail_on_both_schemes(self, tmp_path):
        inputs = ["a\nb", "ok", "c\rd", "x\r\n"]
        mock = make_adapter("mt", "mock", "mock:upper", cache_dir=tmp_path / "cache")
        assert mock.try_run(inputs) == [None, "OK", None, None]
        child = CountingExec(tmp_path)
        for cache_dir in (None, tmp_path / "cache"):
            adapter = make_adapter("mt", "exec", child.endpoint(), cache_dir=cache_dir)
            assert adapter.try_run(inputs) == [None, "OK", None, None]
        assert child.runs() == [["ok"], ["ok"]]
        assert len([p for p in (tmp_path / "cache").rglob("*") if p.is_file()]) == 1
        # the child is not started when no input can be sent
        assert adapter.try_run(["only\nbreaks"]) == [None]
        assert len(child.runs()) == 2

    def test_cr_is_never_sent_to_a_child(self, tmp_path):
        # the line rule keeps a CR inside a line, but a child reading with
        # universal newlines would split there and misalign its whole batch
        script = tmp_path / "upper.py"
        script.write_text("import sys\nfor line in sys.stdin: print(line.rstrip('\\n').upper())\n")
        adapter = make_adapter("mt", "u", f"exec:{sys.executable} {script}")
        assert adapter.try_run(["a", "b\rc", "d"]) == ["A", None, "D"]

    def test_reply_split_by_the_line_rule(self, tmp_path):
        script = tmp_path / "reply.py"
        script.write_text("import sys\nsys.stdin.buffer.read()\n"
                          "sys.stdout.buffer.write('a\\rb\\r\\nc\\u2028d\\n'.encode())\n")
        endpoint = f"exec:{sys.executable} {script}"
        assert make_adapter("mt", "r", endpoint).try_run(["x", "y"]) == ["a\rb", "c\u2028d"]
        cached = make_adapter("mt", "r", endpoint, cache_dir=tmp_path / "cache")
        for _ in range(2):  # cold, then warm: the cache keeps the lone CR
            assert cached.try_run(["x", "y"]) == ["a\rb", "c\u2028d"]

    def test_reply_that_is_not_utf8_is_an_adapter_error(self, tmp_path):
        script = tmp_path / "bad.py"
        script.write_text("import sys\nsys.stdin.buffer.read()\n"
                          "sys.stdout.buffer.write(b'ok\\n\\xff\\n')\n")
        spec = PipelineSpec.from_dict({
            "adapters": {"mt": f"exec:{sys.executable} {script}"},
            "stages": [{"adapter": "mt", "in": "text", "out": "zh"}],
        })
        adapters = adapters_for(spec, cache_dir=tmp_path / "cache")
        assert adapters["mt"].try_run(["a", "b"]) == [None, None]
        out, report = run_cascade(man("a", "b", "c"), spec, adapters)
        assert len(out) == 0 and report.adapter_error_drops == 3
        assert report.output_count + report.adapter_error_drops == report.input_count == 3
        assert not (tmp_path / "cache").exists()

    def test_utf8_whatever_the_locale(self):
        code = ("from unitforge.cascade import make_adapter\n"
                "print(ascii(make_adapter('mt', 'cat', 'exec:cat').try_run(['T\\xe2i-l\\xf4'])))")
        env = {k: v for k, v in os.environ.items()
               if k not in ("PYTHONUTF8", "PYTHONIOENCODING") and not k.startswith("LC_")}
        env.update(LC_ALL="C", PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-X", "utf8=0", "-c", code],
                              capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr.decode(errors="replace")
        assert proc.stdout.decode() == ascii(["T\xe2i-l\xf4"]) + "\n"


class TestRunCascade:
    def test_identity_stage_copies_field(self):
        spec = PipelineSpec.from_dict({
            "adapters": {"copy": "mock:identity"},
            "stages": [{"adapter": "copy", "in": "text", "out": "copied"}],
        })
        src = man("hello", "world")
        out, report = run_cascade(src, spec, adapters_for(spec))
        assert [r.extra["copied"] for r in out] == ["hello", "world"]
        assert report.output_count == 2 and report.adapter_error_drops == 0

    def test_two_stage_composition_matches_manual(self):
        spec = PipelineSpec.from_dict({
            "adapters": {"mt": "mock:upper", "t2u": "mock:char_units"},
            "stages": [{"adapter": "mt", "in": "text", "out": "zh"},
                       {"adapter": "t2u", "in": "zh", "out": "units"}],
        })
        src = man("abc", "hello world", "x")
        out, _ = run_cascade(src, spec, adapters_for(spec))
        for rec in out:
            composed = tuple(ord(ch) % 2500 for ch in rec.text.upper())
            assert rec.units == composed
            assert rec.extra["zh"] == rec.text.upper()

    def test_filter_dropping_everything(self):
        spec = PipelineSpec.from_dict({
            "filters": [{"kind": "min_length", "params": {"field": "text", "min_chars": 99}}],
        })
        src = man("short", "tiny")
        out, report = run_cascade(src, spec, {})
        assert len(out) == 0
        assert report.filter_drops == {"0:min_length": 2}

    def test_adapter_error_drops_counted(self):
        spec = PipelineSpec.from_dict({
            "adapters": {"flaky": "mock:fail:bad"},
            "stages": [{"adapter": "flaky", "in": "text", "out": "out"}],
        })
        src = man("fine", "bad one", "also fine")
        out, report = run_cascade(src, spec, adapters_for(spec))
        assert out.ids() == ("u0", "u2")
        assert report.adapter_error_drops == 1
        assert report.input_count == report.output_count + 1

    def test_unparsable_typed_field_dropped(self):
        spec = PipelineSpec.from_dict({
            "adapters": {"copy": "mock:identity"},
            "stages": [{"adapter": "copy", "in": "text", "out": "units"}],
        })
        src = man("1 2 3", "not units", "40 5", "7 x", "")
        out, report = run_cascade(src, spec, adapters_for(spec))
        assert out.ids() == ("u0", "u2", "u4")
        assert [r.units for r in out] == [(1, 2, 3), (40, 5), None]
        assert report.field_parse_drops == 2 and report.adapter_error_drops == 0
        assert report.to_dict()["field_parse_drops"] == 2
        assert (report.output_count + report.adapter_error_drops + report.field_parse_drops
                + sum(report.filter_drops.values())) == report.input_count == 5

    def test_duplicate_ids_keep_first_survivor(self):
        spec = PipelineSpec.from_dict({
            "adapters": {"copy": "mock:identity"},
            "stages": [{"adapter": "copy", "in": "lang", "out": "id"}],
            "filters": [{"kind": "min_length", "params": {"field": "text", "min_chars": 2}}],
        })
        langs = ["en", "en", "nan", "en", "nan"]
        texts = ["x", "second", "third", "fourth", "fifth"]
        src = Manifest(records=tuple(
            Utterance(id=f"u{i}", lang=lang, text=text)
            for i, (lang, text) in enumerate(zip(langs, texts))))
        out, report = run_cascade(src, spec, adapters_for(spec))
        # the first "en" record is filtered out, so the second one keeps the id
        assert out.ids() == ("en", "nan")
        assert [r.text for r in out] == ["second", "third"]
        assert report.duplicate_id_drops == 2
        assert report.to_dict()["duplicate_id_drops"] == 2
        # an empty id is a ManifestError, not a duplicate
        with pytest.raises(ManifestError, match="nonempty"):
            set_field(src.records[0], "id", "")
        assert report.filter_drops == {"0:min_length": 1}
        assert (report.output_count + report.adapter_error_drops + report.field_parse_drops
                + report.duplicate_id_drops + sum(report.filter_drops.values())) \
            == report.input_count == 5

    def test_unparsable_units_raise_int_error(self):
        # the ValueError run_cascade counts as field_parse_error, message unchanged
        for value in ("7 x", "1 2.5", "3 -", "1 2 three"):
            bad = next(tok for tok in value.split() if not tok.lstrip("-").isdigit())
            with pytest.raises(ValueError) as info:
                set_field(Utterance(id="a"), "units", value)
            assert type(info.value) is ValueError
            assert str(info.value) == f"invalid literal for int() with base 10: {bad!r}"
        assert set_field(Utterance(id="a"), "units", " 007\u3000-1 ").units == (7, -1)
        assert set_field(Utterance(id="a"), "units", " ").units is None
        assert get_field(Utterance(id="a", units=(7, 0, 12)), "units") == "7 0 12"
        assert get_field(Utterance(id="a", units=()), "units") == ""
        # set_field is corpus's inverse of get_field, for every column
        assert set_field is corpus.set_field
        gen = random.Random(11)
        for i in range(40):
            rec = Utterance(
                id=f"r{i}", lang=gen.choice(["", "en", "hok"]),
                audio_ref=gen.choice([None, f"wav/{i}.wav"]),
                duration_s=gen.choice([None, 0.0, 1e-7, gen.uniform(0, 30)]),
                speaker=gen.choice([None, "s1"]), text=gen.choice([None, "", "hi there"]),
                units=gen.choice([None, tuple(gen.randrange(2500)
                                              for _ in range(gen.randint(1, 9)))]),
                extra=gen.choice([{}, {"zh": "你好"}, {"zh": ""}]))
            for name in TSV_COLUMNS + ("zh",):
                new = set_field(rec, name, get_field(rec, name))
                for other in TSV_COLUMNS + ("zh",):
                    assert get_field(new, other) == get_field(rec, other)
        assert set_field(Utterance(id="a", text="x"), "text", "").text == ""
        assert set_field(Utterance(id="a"), "zh", "").extra == {"zh": ""}
        for name in ("audio", "speaker", "duration_s"):
            assert get_field(set_field(Utterance(id="a"), name, ""), name) == ""
        assert set_field(Utterance(id="a", audio_ref="x"), "audio", "").audio_ref is None

    def test_unparsable_duration_dropped(self):
        spec = PipelineSpec.from_dict({
            "adapters": {"copy": "mock:identity"},
            "stages": [{"adapter": "copy", "in": "text", "out": "duration_s"}],
            "filters": [{"kind": "min_length", "params": {"field": "text", "min_chars": 2}}],
        })
        src = man("2.5", "two", "-1", "inf", "0.25", "7")
        out, report = run_cascade(src, spec, adapters_for(spec))
        assert out.ids() == ("u0", "u4")
        assert [r.duration_s for r in out] == [2.5, 0.25]
        assert report.field_parse_drops == 3
        assert report.filter_drops == {"0:min_length": 1}
        assert report.output_count + report.field_parse_drops + 1 == report.input_count

    def test_unknown_adapter(self):
        spec = PipelineSpec.from_dict({
            "stages": [{"adapter": "ghost", "in": "text", "out": "y"}]})
        with pytest.raises(CascadeError, match="unknown adapter"):
            run_cascade(man("a"), spec, {})

    def test_forward_field_reference_is_cyclic_error(self):
        spec = PipelineSpec.from_dict({
            "adapters": {"a": "mock:identity", "b": "mock:identity"},
            "stages": [{"adapter": "a", "in": "later", "out": "x"},
                       {"adapter": "b", "in": "x", "out": "later"}],
        })
        with pytest.raises(CascadeError, match="cyclic"):
            run_cascade(man("a"), spec, adapters_for(spec))

    def test_unknown_input_field(self):
        spec = PipelineSpec.from_dict({
            "adapters": {"a": "mock:identity"},
            "stages": [{"adapter": "a", "in": "nonexistent", "out": "x"}]})
        with pytest.raises(CascadeError, match="nonexistent"):
            run_cascade(man("a"), spec, adapters_for(spec))

    @pytest.mark.parametrize("params, index, name", [
        ({"kind": "code_switch", "params": {"field": "asr_txt", "ref_field": "text"}},
         1, "asr_txt"),
        ({"kind": "code_switch", "params": {"field": "asr_text", "ref_field": "subs"}},
         1, "subs"),
        ({"kind": "min_length", "params": {"field": "nowhere"}}, 1, "nowhere")])
    def test_unknown_filter_field(self, params, index, name):
        # an absent field reads as "", so it would decide every record silently
        spec = PipelineSpec.from_dict({
            "adapters": {"asr": "mock:identity"},
            "stages": [{"adapter": "asr", "in": "text", "out": "asr_text"}],
            "filters": [{"kind": "min_length", "params": {"field": "text"}}, params]})
        with pytest.raises(CascadeError, match=rf"filter {index}: field '{name}'"):
            run_cascade(man("hello", "world"), spec, adapters_for(spec))

    def test_filter_fields_from_columns_extras_and_stages(self):
        src = man("hello", "world", subs=["hello", "hello"])
        spec = PipelineSpec.from_dict({
            "adapters": {"asr": "mock:identity"},
            "stages": [{"adapter": "asr", "in": "text", "out": "asr_text"}],
            "filters": [{"kind": "code_switch",
                         "params": {"field": "asr_text", "ref_field": "subs"}},
                        {"kind": "min_length", "params": {"field": "id", "min_chars": 2}}]})
        out, report = run_cascade(src, spec, adapters_for(spec))
        assert out.ids() == ("u0",)
        assert report.filter_drops == {"0:code_switch": 1, "1:min_length": 0}

    def test_conservation_over_random_pipelines(self, rng):
        mocks = ["mock:identity", "mock:upper", "mock:lower", "mock:reverse",
                 "mock:char_units", "mock:fail:q"]
        alphabet = "abcq xyz"
        for trial in range(50):
            n = int(rng.integers(1, 12))
            texts = ["".join(rng.choice(list(alphabet), size=rng.integers(0, 10)))
                     for _ in range(n)]
            stage_count = int(rng.integers(0, 3))
            spec_dict = {
                "adapters": {f"a{s}": mocks[int(rng.integers(0, len(mocks)))]
                             for s in range(stage_count)},
                "stages": [{"adapter": f"a{s}",
                            "in": "text" if s == 0 else f"f{s - 1}",
                            "out": f"f{s}"} for s in range(stage_count)],
                "filters": [{"kind": "min_length",
                             "params": {"field": "text",
                                        "min_chars": int(rng.integers(0, 6))}}],
            }
            spec = PipelineSpec.from_dict(spec_dict)
            src = Manifest(records=tuple(
                Utterance(id=f"t{trial}-{i}", text=t) for i, t in enumerate(texts)))
            out, report = run_cascade(src, spec, adapters_for(spec))
            assert (report.output_count + report.adapter_error_drops
                    + sum(report.filter_drops.values())) == report.input_count == n
            assert len(out) == report.output_count

    def test_filters_commute_with_record_order(self):
        spec = PipelineSpec.from_dict({
            "filters": [{"kind": "min_length", "params": {"field": "text", "min_chars": 4}}]})
        texts = ["one", "tiny", "xy", "bigger words", "abc"]
        records = tuple(Utterance(id=f"u{i}", text=t) for i, t in enumerate(texts))
        fwd, _ = run_cascade(Manifest(records=records), spec, {})
        rev, _ = run_cascade(Manifest(records=records[::-1]), spec, {})
        assert set(fwd.ids()) == set(rev.ids())

    def test_report_json_round_trip(self):
        spec = PipelineSpec.from_dict({
            "filters": [{"kind": "min_length", "params": {"min_chars": 3}}]})
        _, report = run_cascade(man("hi", "hello"), spec, {})
        parsed = json.loads(json.dumps(report.to_dict()))
        assert parsed["input_count"] == 2
        assert parsed["filter_drops"]["0:min_length"] == 1


def stages_then_filters(src: Manifest, spec: PipelineSpec, adapters) -> Manifest:
    """The kept records of the order that ran every stage over every record
    and then every filter, kept as the oracle."""
    records = list(src.records)
    for stage in spec.stages:
        live = [i for i, rec in enumerate(records) if rec is not None]
        outputs = adapters[stage.adapter].try_run(
            [get_field(records[i], stage.in_field) for i in live])
        for i, out in zip(live, outputs):
            try:
                records[i] = None if out is None else set_field(records[i], stage.out_field, out)
            except ValueError:
                records[i] = None
    for fspec in spec.filters:
        p = fspec.params
        for i, rec in enumerate(records):
            if rec is None:
                continue
            if fspec.kind == "min_length":
                keep = filter_min_length(get_field(rec, p["field"]), p["min_chars"])
            else:
                keep = filter_code_switch(get_field(rec, p["field"]),
                                          get_field(rec, p["ref_field"]),
                                          p["tokenizer"], p["max_norm_dist"])
            if not keep:
                records[i] = None
    kept, seen = [], set()
    for rec in records:
        if rec is not None and rec.id not in seen:
            seen.add(rec.id)
            kept.append(rec)
    return Manifest(records=kept)


def dropped(report) -> int:
    return (report.adapter_error_drops + report.field_parse_drops + report.duplicate_id_drops
            + sum(report.filter_drops.values()))


class TestFilterPlacement:
    """Each filter runs once the fields it reads are final, so records it
    drops reach no later adapter."""

    def test_filter_sees_the_value_a_later_stage_writes(self):
        spec = PipelineSpec.from_dict({
            "adapters": {"same": "mock:identity", "up": "mock:upper", "rev": "mock:reverse"},
            "stages": [{"adapter": "same", "in": "text", "out": "hyp"},
                       {"adapter": "up", "in": "text", "out": "zh"},
                       {"adapter": "rev", "in": "text", "out": "hyp"}],
            # the second filter reads only text, yet runs after the first
            "filters": [{"kind": "code_switch",
                         "params": {"field": "hyp", "ref_field": "text", "max_norm_dist": 0.0}},
                        {"kind": "min_length", "params": {"field": "text", "min_chars": 4}}],
        })
        src = man("abba", "abc", "aba", "level", "levels", "ab")
        out, report = run_cascade(src, spec, adapters_for(spec))
        assert [r.text for r in out] == ["abba", "level"]
        assert [r.extra["hyp"] for r in out] == ["abba", "level"]
        # "ab" fails both filters and is counted under the first
        assert report.filter_drops == {"0:code_switch": 3, "1:min_length": 1}

    def test_record_failing_a_filter_and_a_later_stage_counts_as_the_filter(self):
        spec = PipelineSpec.from_dict({
            "adapters": {"flaky": "mock:fail:q", "copy": "mock:identity"},
            "stages": [{"adapter": "flaky", "in": "text", "out": "zh"},
                       {"adapter": "copy", "in": "text", "out": "units"}],
            "filters": [{"kind": "min_length", "params": {"field": "text", "min_chars": 3}}],
        })
        # filter and stage 0; stage 0; filter and stage 1's parse; stage 1's parse; kept
        src = man("qq", "q 1 2", "ab", "abcd", "1 2 3")
        out, report = run_cascade(src, spec, adapters_for(spec))
        assert out.ids() == ("u4",)
        assert report.filter_drops == {"0:min_length": 2}
        assert report.adapter_error_drops == 1 and report.field_parse_drops == 1
        assert report.output_count + dropped(report) == report.input_count == 5

    def test_cold_cache_holds_one_entry_per_record_reaching_the_stage(self, tmp_path):
        spec = PipelineSpec.from_dict({
            "adapters": {"asr": "mock:lower", "mt": "exec:cat"},
            "stages": [{"adapter": "asr", "in": "text", "out": "asr_text"},
                       {"adapter": "mt", "in": "text", "out": "translation"}],
            "filters": [{"kind": "min_length", "params": {"field": "text", "min_chars": 3}},
                        {"kind": "code_switch", "params": {"field": "asr_text",
                                                           "max_norm_dist": 0.0}}],
        })
        src = man("abc", "ABC", "ab", "hello", "Hello", "xyz")
        out, report = run_cascade(src, spec, adapters_for(spec, cache_dir=tmp_path / "cache"))
        assert [r.extra["translation"] for r in out] == ["abc", "hello", "xyz"]
        assert report.filter_drops == {"0:min_length": 1, "1:code_switch": 2}
        assert len([p for p in (tmp_path / "cache").rglob("*") if p.is_file()]) == 3

    def test_dropped_poison_input_no_longer_fails_its_batch(self, tmp_path):
        script = tmp_path / "poison.py"
        script.write_text("import sys\n"
                          "lines = sys.stdin.read().split('\\n')[:-1]\n"
                          "if 'bad' in lines: sys.exit(1)\n"
                          "for line in lines: print(line.upper())\n")
        spec = PipelineSpec.from_dict({
            "adapters": {"mt": f"exec:{sys.executable} {script}"},
            "stages": [{"adapter": "mt", "in": "text", "out": "zh"}],
            "filters": [{"kind": "min_length", "params": {"field": "text", "min_chars": 4}}],
        })
        out, report = run_cascade(man("hello", "bad", "world"), spec, adapters_for(spec))
        assert [r.extra["zh"] for r in out] == ["HELLO", "WORLD"]
        assert report.filter_drops == {"0:min_length": 1} and report.adapter_error_drops == 0

    def test_kept_records_match_the_stages_then_filters_oracle(self, rng):
        mocks = ["mock:identity", "mock:upper", "mock:lower", "mock:reverse",
                 "mock:char_units", "mock:fail:q"]
        outs = ["text", "hyp", "zh", "units", "duration_s", "id"]
        alphabet = list("abqAB 12.")
        for trial in range(200):
            n = int(rng.integers(1, 14))
            src = Manifest(records=tuple(
                Utterance(id=f"t{i}", text="".join(rng.choice(alphabet, size=rng.integers(0, 9))))
                for i in range(n)))
            fields, stages = ["text"], []
            for s in range(int(rng.integers(0, 5))):
                out = str(rng.choice(outs))
                stages.append({"adapter": f"a{s}", "in": str(rng.choice(fields)), "out": out})
                fields.append(out)
            filters = []
            for _ in range(int(rng.integers(0, 4))):
                if rng.random() < 0.5:
                    filters.append({"kind": "min_length", "params": {
                        "field": str(rng.choice(fields)), "min_chars": int(rng.integers(0, 5))}})
                else:
                    filters.append({"kind": "code_switch", "params": {
                        "field": str(rng.choice(fields)), "ref_field": str(rng.choice(fields)),
                        "max_norm_dist": float(rng.choice([0.0, 0.3, 0.6, 1.0]))}})
            spec = PipelineSpec.from_dict({
                "adapters": {f"a{s}": str(rng.choice(mocks)) for s in range(len(stages))},
                "stages": stages, "filters": filters})
            adapters = adapters_for(spec)
            out, report = run_cascade(src, spec, adapters)
            assert out == stages_then_filters(src, spec, adapters), spec
            assert report.output_count == len(out)
            assert report.output_count + dropped(report) == report.input_count == n


class TestPipelineSpecIO:
    def test_from_json_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "adapters": {"mt": "mock:upper"},
            "stages": [{"adapter": "mt", "in": "text", "out": "zh"}],
            "filters": [{"kind": "min_length", "params": {"min_chars": 1}}],
        }))
        spec = PipelineSpec.from_json_file(path)
        assert spec.stages[0].out_field == "zh"
        assert spec.filters[0].kind == "min_length"

    def test_unknown_filter_kind(self):
        with pytest.raises(CascadeError, match="filter kind"):
            PipelineSpec.from_dict({"filters": [{"kind": "nope"}]})

    @pytest.mark.parametrize("obj", [
        [],
        {"filters": [{"params": {"min_chars": 1}}]},
        {"filters": [{"kind": "min_length", "params": 5}]},
        {"filters": [{"kind": "min_length", "params": None}]},
        {"filters": 5},
        {"filters": [1]},
        {"stages": [1]},
        {"stages": 5},
        {"stages": [{"adapter": "a", "in": "text", "out": 5}]},
        {"stages": [{"adapter": "a", "in": "text", "out": ""}]},
        {"adapters": [1]},
        {"adapters": {"a": 5}},
    ])
    def test_malformed_spec_is_cascade_error(self, obj):
        with pytest.raises(CascadeError):
            PipelineSpec.from_dict(obj)

    def test_filter_params_typed_with_defaults(self):
        spec = PipelineSpec.from_dict({"filters": [
            {"kind": "min_length"},
            {"kind": "code_switch", "params": {"max_norm_dist": "0.25", "tokenizer": "word13a"}},
            {"kind": "min_length", "params": {"field": "zh", "min_chars": 7.0}},
        ]})
        assert [f.params for f in spec.filters] == [
            {"field": "text", "min_chars": 3},
            {"field": "asr_text", "ref_field": "text", "tokenizer": "word13a",
             "max_norm_dist": 0.25},
            {"field": "zh", "min_chars": 7},
        ]

    def test_unknown_filter_param_rejected(self):
        with pytest.raises(CascadeError, match="unknown param.*'min_char'"):
            PipelineSpec.from_dict(
                {"filters": [{"kind": "min_length", "params": {"min_char": 50}}]})

    @pytest.mark.parametrize("kind, params, match", [
        ("code_switch", {"max_norm_dist": 7}, "max_norm_dist"),
        ("code_switch", {"max_norm_dist": "x"}, "max_norm_dist"),
        ("code_switch", {"tokenizer": "nope"}, "unknown tokenizer"),
        ("min_length", {"min_chars": -1}, "min_chars"),
        ("min_length", {"min_chars": "3.5"}, "min_chars"),
    ])
    def test_bad_filter_value_rejected_on_empty_manifest(self, kind, params, match):
        with pytest.raises(CascadeError, match=match):
            spec = PipelineSpec.from_dict({"filters": [{"kind": kind, "params": params}]})
            run_cascade(Manifest(), spec, {})

    def test_missing_stage_key(self):
        with pytest.raises(CascadeError, match="stage 0"):
            PipelineSpec.from_dict({"stages": [{"adapter": "x", "in": "text"}]})


def _spec_file(tmp, obj):
    path = tmp / "s.json"
    path.write_text(json.dumps(obj))
    return path


# each refusal: (a call given a scratch directory, its error, its message)
REFUSALS = {
    "empty exec command": (lambda tmp: make_adapter("stage", "x", "exec:  "),
                           CascadeError, "adapter 'x': empty exec command"),
    "missing mock table": (lambda tmp: make_adapter("stage", "x", f"mock:{tmp}/none.tsv"),
                           CascadeError, "mock table {tmp}/none.tsv does not exist"),
    "spec file, stages not a list": (
        lambda tmp: PipelineSpec.from_json_file(_spec_file(tmp, {"stages": {}})),
        CascadeError, "{tmp}/s.json: 'stages' must be a list, got dict"),
    "unknown adapter": (lambda tmp: run_cascade(
        Manifest(records=(Utterance(id="u", text="hi"),)),
        PipelineSpec.from_dict({"stages": [{"adapter": "zz", "in": "text", "out": "t"}]}), {}),
                        CascadeError, "stage 0: unknown adapter 'zz'"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_refusals(tmp_path, name):
    call, error, message = REFUSALS[name]
    with pytest.raises(error) as info:
        call(tmp_path)
    assert str(info.value) == message.format(tmp=tmp_path)
