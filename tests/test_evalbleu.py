from __future__ import annotations

import json
import math
import random
import re
import sys
import unicodedata
from collections import Counter
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from unitforge import evalbleu
from unitforge.cascade import make_adapter
from unitforge.corpus import Manifest, Utterance
from unitforge.evalbleu import (
    BleuError, TokenizedCorpus, asr_bleu, corpus_bleu,
    tailo_digit_form, tailo_split_syllable, tokenize, tokenize_corpus,
)

DATA = Path(__file__).parent / "data"


class TestWord13a:
    def test_punctuation_split(self):
        assert tokenize("Hello, world!", "word13a") == ["Hello", ",", "world", "!"]

    def test_matches_reference_fixture_byte_for_byte(self):
        # expected file produced by the standard BLEU tool's 13a tokenizer
        inputs = (DATA / "tok13a_input.txt").read_text(encoding="utf-8").splitlines()
        expected = (DATA / "tok13a_expected.txt").read_text(encoding="utf-8").splitlines()
        assert len(inputs) == 50
        for line, exp in zip(inputs, expected):
            assert " ".join(tokenize(line, "word13a")) == exp


class TestCharTokenizer:
    def test_cjk(self):
        assert tokenize("你好", "char") == ["你", "好"]

    def test_spaces_dropped(self):
        assert tokenize("a b  c", "char") == ["a", "b", "c"]


class TestTailoTokenizers:
    def test_syllable_split(self):
        assert tokenize("tai5-lo5 su1", "tailo_syllable") == ["tai5", "lo5", "su1"]

    def test_diacritics_become_digits(self):
        assert tailo_digit_form("tâi") == "tai5"
        assert tailo_digit_form("lô") == "lo5"
        assert tailo_digit_form("pōng") == "pong7"
        assert tailo_digit_form("ta̍k") == "tak8"
        assert tokenize("Tâi-lô", "tailo_syllable") == ["tai5", "lo5"]

    def test_initial_final_tokens(self):
        assert tokenize("tai5-lo5 su1", "tailo_initial_final") == \
            ["t", "ai5", "l", "o5", "s", "u1"]

    def test_null_initial_yields_single_token(self):
        assert tokenize("ang5", "tailo_initial_final") == ["ang5"]

    def test_unknown_scheme(self):
        with pytest.raises(BleuError):
            tokenize("x", "word14b")


# representative finals, including vowel-less syllabic nasals
TAILO_FINALS = [
    "a", "ah", "ai", "ainn", "ak", "am", "an", "ang", "ann", "ap", "at", "au",
    "e", "eh", "enn", "i", "ia", "iah", "iam", "ian", "iang", "iann", "iap",
    "iat", "iau", "ik", "im", "in", "ing", "io", "ioh", "iok", "iong", "ip",
    "it", "iu", "iunn", "m", "mh", "ng", "ngh", "o", "oh", "ok", "ong", "oo",
    "op", "u", "ua", "uah", "uai", "uan", "uang", "uann", "uat", "ue", "ueh",
    "uh", "ui", "un", "ut",
]
TAILO_INITIALS_ALL = ["", "p", "ph", "m", "b", "t", "th", "n", "l",
                      "k", "kh", "ng", "g", "h", "ts", "tsh", "s", "j"]


class TestTailoSplit:
    @pytest.mark.parametrize("syllable,expected", [
        ("tsa1", ("ts", "a1")),       # longest match beats "t"
        ("ang5", ("", "ang5")),       # vowel onset
        ("khoo2", ("kh", "oo2")),     # longest match beats "k"
        ("ng", ("", "ng")),           # bare syllabic nasal
        ("m7", ("", "m7")),
        ("png7", ("p", "ng7")),       # consonant + syllabic nasal final
        ("mng5", ("m", "ng5")),
        ("khng3", ("kh", "ng3")),
        ("ngoo2", ("ng", "oo2")),
        ("tshiah4", ("tsh", "iah4")),
        ("ji7", ("j", "i7")),
        ("goa5", ("g", "oa5")),
    ])
    def test_known_splits(self, syllable, expected):
        assert tailo_split_syllable(syllable) == expected

    def test_case_folding(self):
        assert tailo_split_syllable("Tsa1") == ("ts", "a1")

    def test_empty_rejected(self):
        with pytest.raises(BleuError):
            tailo_split_syllable("")

    def test_round_trip_exhaustive_inventory(self):
        # every initial x final x tone recombination must round-trip
        for initial in TAILO_INITIALS_ALL:
            for final in TAILO_FINALS:
                for tone in ("", "1", "2", "3", "4", "5", "6", "7", "8", "9"):
                    syllable = initial + final + tone
                    got_initial, got_final = tailo_split_syllable(syllable)
                    assert got_initial + got_final == syllable, syllable
                    assert got_final, syllable


def corp(lines, scheme="word13a"):
    return tokenize_corpus(lines, scheme)


# --- oracles for the memoized tokenizer and the numpy BLEU statistics --------

def fresh_digit_form(syllable):
    """Digit-tone form from unicodedata alone, recomputed on every call."""
    tone, kept = "", []
    for ch in unicodedata.normalize("NFD", syllable.casefold()):
        if ch in evalbleu._TONE_MARKS:
            tone = tone or evalbleu._TONE_MARKS[ch]
        else:
            kept.append(ch)
    body = unicodedata.normalize("NFC", "".join(kept))
    return body if body and body[-1].isdigit() else body + tone


def fresh_tokenize(text, scheme):
    syllables = [fresh_digit_form(tok) for tok in text.replace("-", " ").split()]
    if scheme == "tailo_syllable":
        return syllables
    tokens = []
    for norm in syllables:
        body = norm[:-1] if norm and norm[-1].isdigit() else norm
        initial = next((ini for ini in evalbleu.TAILO_INITIALS
                        if body.startswith(ini) and body[len(ini):]
                        and (body[len(ini)] in "aeiou"
                             or body[len(ini):] in ("m", "mh", "ng", "ngh"))), "")
        tokens += [initial, norm[len(initial):]] if initial else [norm]
    return tokens


def counter_bleu_stats(hyps, refs, max_n):
    """The per-segment Counter loop the numpy statistics replace."""
    def ngram_counts(tokens):
        counts = Counter()
        for n in range(1, max_n + 1):
            for i in range(len(tokens) - n + 1):
                counts[tuple(tokens[i:i + n])] += 1
        return counts

    rows = []
    for hyp, ref in zip(hyps.segments, refs.segments):
        row = [0] * (2 * max_n + 2)
        ref_counts = ngram_counts(ref)
        for ngram, count in ngram_counts(hyp).items():
            row[len(ngram) - 1] += min(count, ref_counts.get(ngram, 0))
            row[max_n + len(ngram) - 1] += count
        row[-2:] = [len(hyp), len(ref)]
        rows.append(row)
    return np.array(rows, dtype=np.int64).reshape(len(rows), 2 * max_n + 2)


def assert_matches_counter_oracle(hyps, refs, monkeypatch):
    for max_n in (1, 2, 4, 6):
        want = counter_bleu_stats(hyps, refs, max_n)
        for block in (2, evalbleu._STATS_BLOCK):
            with monkeypatch.context() as patch:
                patch.setattr(evalbleu, "_STATS_BLOCK", block)
                stats = evalbleu._bleu_stats(hyps, refs, max_n)
            assert stats.dtype == np.int64
            np.testing.assert_array_equal(stats, want)
    for smoothing in ("none", "exp"):
        got = corpus_bleu(hyps, refs, smoothing=smoothing)
        with monkeypatch.context() as patch:
            patch.setattr(evalbleu, "_bleu_stats", counter_bleu_stats)
            want = corpus_bleu(hyps, refs, smoothing=smoothing)
        assert got == want
        assert type(got.hyp_len) is int and type(got.ref_len) is int


_TONE_DIACRITICS = ("", "\u0301", "\u0300", "\u0302", "\u030c", "\u0304", "\u030d", "\u030b")


def random_tailo_syllable(rng):
    initial = rng.choice(TAILO_INITIALS_ALL)
    final = rng.choice(TAILO_FINALS)
    if rng.random() < 0.5:
        return initial + final + rng.choice("123456789")
    # tone as a diacritic on the first letter of the final, composed or not
    mark = rng.choice(_TONE_DIACRITICS)
    syllable = initial + final[0] + mark + final[1:]
    syllable = unicodedata.normalize(rng.choice(("NFC", "NFD")), syllable)
    return syllable.upper() if rng.random() < 0.1 else syllable


def random_tailo_corpus(rng, scheme):
    refs, hyps = [], []
    for _ in range(rng.randint(1, 12)):
        ref = [random_tailo_syllable(rng) for _ in range(rng.randint(0, 14))]
        hyp = [rng.choice(ref) if ref and rng.random() < 0.2 else tok for tok in ref]
        if rng.random() < 0.3:
            hyp = hyp[:rng.randint(0, len(hyp))]
        if rng.random() < 0.3:
            hyp += [random_tailo_syllable(rng) for _ in range(rng.randint(1, 4))]
        refs.append(rng.choice(("-", " ")).join(ref))
        hyps.append(" ".join(hyp))
    return tokenize_corpus(hyps, scheme), tokenize_corpus(refs, scheme)


class TestTokenizerMemo:
    @pytest.mark.parametrize("scheme", ["tailo_syllable", "tailo_initial_final"])
    def test_memoized_equals_fresh_computation(self, scheme):
        rng = random.Random(17)
        lines = [" ".join(random_tailo_syllable(rng) for _ in range(rng.randint(1, 20)))
                 for _ in range(300)]
        tailo_digit_form.cache_clear()
        tailo_split_syllable.cache_clear()
        evalbleu._initial_final_tokens.cache_clear()
        for _ in range(2):  # cold cache, then every syllable a hit
            assert [tokenize(line, scheme) for line in lines] == \
                [fresh_tokenize(line, scheme) for line in lines]
        assert tailo_digit_form.cache_info().hits > 0

    def test_memo_is_bounded(self):
        for fn in (tailo_digit_form, tailo_split_syllable, evalbleu._initial_final_tokens):
            assert fn.cache_info().maxsize == evalbleu._SYLLABLE_CACHE_SIZE

    def test_empty_syllable_still_rejected_after_a_hit(self):
        assert tailo_split_syllable("tsa1") == ("ts", "a1")
        for _ in range(2):
            with pytest.raises(BleuError):
                tailo_split_syllable("")


# --- oracles for the split-based tokenizers ----------------------------------

_SYLLABLE_SPLIT = re.compile(r"[\s\-]+")
_WHITESPACE = tuple(chr(cp) for cp in range(sys.maxunicode + 1) if chr(cp).isspace())


def regex_syllables(text):
    """The regex split the Tai-lo tokenizers used before ``str.split``."""
    return [tailo_digit_form(tok) for tok in _SYLLABLE_SPLIT.split(text) if tok]


def loop_tokenize(text, scheme):
    """The per-character and per-syllable loops the C-level passes replace."""
    if scheme == "char":
        return [ch for ch in text if not ch.isspace()]
    if scheme == "tailo_syllable":
        return regex_syllables(text)
    tokens = []
    for syllable in regex_syllables(text):
        initial, final = tailo_split_syllable(syllable)
        if initial:
            tokens.append(initial)
        tokens.append(final)
    return tokens


class TestSplitTokenizers:
    def test_regex_space_class_is_isspace(self):
        space = re.compile(r"\s")
        assert [cp for cp in range(sys.maxunicode + 1)
                if (space.fullmatch(chr(cp)) is not None) != chr(cp).isspace()] == []

    @pytest.mark.parametrize("scheme", ["char", "tailo_syllable", "tailo_initial_final"])
    def test_matches_regex_and_loop_oracles(self, scheme):
        texts = [
            "", " ", "-", "---", " - -\t", "-tsa1-", "  Tâi-lô  ", "tâi--lô", "tâi - lô",
            "\u3000tsa\u00a0ê\u2028lâng\x1c", "-\u0085-gâu-\u2003",
            "tsa1" + "".join(_WHITESPACE) + "ê5", "--" + "-".join(_WHITESPACE) + "--",
            # not separators: zero-width space, Unicode hyphen, soft hyphen
            "tsa\u200bê", "tâi\u2010lô", "tâi\u00adlô",
        ]
        rng = random.Random(8)
        separators = list(_WHITESPACE) + ["-", "-", "\u200b", "\u2010"]
        for _ in range(400):
            parts = [rng.choice(separators) * rng.randint(1, 3) if rng.random() < 0.5
                     else random_tailo_syllable(rng) for _ in range(rng.randint(0, 10))]
            texts.append("".join(parts))
        for text in texts:
            assert tokenize(text, scheme) == loop_tokenize(text, scheme), repr(text)

    def test_tokens_are_fresh_lists(self):
        first = tokenize("tsa1-ang5 tsa1", "tailo_initial_final")
        first.append("x")
        assert tokenize("tsa1-ang5 tsa1", "tailo_initial_final") == ["ts", "a1", "ang5", "ts", "a1"]


class TestBleuStats:
    def test_reference_fixtures_match_counter_oracle(self, monkeypatch):
        cases = json.loads((DATA / "bleu_cases.json").read_text(encoding="utf-8"))
        for case in cases:
            for scheme in ("word13a", "char"):
                assert_matches_counter_oracle(
                    corp(case["hyps"], scheme), corp(case["refs"], scheme), monkeypatch)

    def test_random_tailo_corpora_match_counter_oracle(self, monkeypatch):
        rng = random.Random(29)
        for i in range(200):
            hyps, refs = random_tailo_corpus(
                rng, ("tailo_syllable", "tailo_initial_final")[i % 2])
            assert_matches_counter_oracle(hyps, refs, monkeypatch)

    def test_empty_segments(self, monkeypatch):
        hyps = TokenizedCorpus(((), ("a",), (), ("a", "b")), "char")
        refs = TokenizedCorpus((("a",), (), (), ("a", "b")), "char")
        assert_matches_counter_oracle(hyps, refs, monkeypatch)
        assert_matches_counter_oracle(TokenizedCorpus(((),), "char"),
                                      TokenizedCorpus(((),), "char"), monkeypatch)

    def test_block_past_the_sparse_key_bound_matches_counter_oracle(self, monkeypatch):
        # about 60 fresh tokens per segment put n_seg * V**4 past the sentinel,
        # so a full block renumbers its n-gram ids before order 4 (and 6)
        rng = random.Random(37)
        shared = [f"w{i}" for i in range(50)]
        hyps, refs = [], []
        for i in range(evalbleu._STATS_BLOCK):
            ref = [rng.choice(shared) if rng.random() < 0.2 else f"r{i}.{j}"
                   for j in range(rng.randint(40, 80))]
            hyps.append([tok if rng.random() < 0.8 else f"h{i}.{j}" for j, tok in enumerate(ref)])
            refs.append(ref)
        n_voc = len(set(chain.from_iterable(hyps + refs)))
        assert len(hyps) * n_voc ** 4 >= evalbleu._NO_KEY
        assert_matches_counter_oracle(TokenizedCorpus(hyps, "char"),
                                      TokenizedCorpus(refs, "char"), monkeypatch)

    def test_shards_sum_to_whole(self):
        rng = random.Random(31)
        hyps, refs = random_tailo_corpus(rng, "tailo_initial_final")
        while len(hyps) < 9:
            more = random_tailo_corpus(rng, "tailo_initial_final")
            hyps = TokenizedCorpus(hyps.segments + more[0].segments, hyps.tokenizer_tag)
            refs = TokenizedCorpus(refs.segments + more[1].segments, refs.tokenizer_tag)
        whole = evalbleu._bleu_stats(hyps, refs, 4)
        cuts = [0, len(hyps) // 3, 2 * len(hyps) // 3, len(hyps)]
        shards = [evalbleu._bleu_stats(
            TokenizedCorpus(hyps.segments[lo:hi], hyps.tokenizer_tag),
            TokenizedCorpus(refs.segments[lo:hi], refs.tokenizer_tag), 4)
            for lo, hi in zip(cuts, cuts[1:])]
        np.testing.assert_array_equal(np.vstack(shards), whole)
        np.testing.assert_array_equal(sum(s.sum(axis=0) for s in shards), whole.sum(axis=0))


class TestCorpusBleu:
    def test_identity_is_100(self):
        refs = corp(["the cat sat on the mat", "a longer second sentence here"])
        report = corpus_bleu(refs, refs)
        assert report.bleu == pytest.approx(100.0)
        assert report.brevity_penalty == 1.0
        assert report.precisions == (1.0, 1.0, 1.0, 1.0)

    def test_zero_fourgram_matches_is_zero(self):
        report = corpus_bleu(corp(["a b c d e"]), corp(["a b x d e"]))
        assert report.precisions[3] == 0.0
        assert report.bleu == 0.0

    def test_matches_reference_tool_fixtures(self):
        cases = json.loads((DATA / "bleu_cases.json").read_text(encoding="utf-8"))
        assert len(cases) == 20
        for case in cases:
            hyps = corp(case["hyps"])
            refs = corp(case["refs"])
            for method in ("none", "exp"):
                report = corpus_bleu(hyps, refs, smoothing=method)
                assert report.bleu == pytest.approx(case[f"score_{method}"], abs=0.01), \
                    (case["name"], method)
            report = corpus_bleu(hyps, refs)
            assert report.hyp_len == case["sys_len"]
            assert report.ref_len == case["ref_len"]
            assert report.brevity_penalty == pytest.approx(case["bp"], abs=1e-9)

    def test_segment_count_mismatch(self):
        with pytest.raises(BleuError, match="mismatch"):
            corpus_bleu(corp(["a"]), corp(["a", "b"]))

    def test_empty_corpus(self):
        with pytest.raises(BleuError, match="empty"):
            corpus_bleu(corp([]), corp([]))

    def test_tokenizer_tag_mismatch(self):
        with pytest.raises(BleuError, match="tokenizer"):
            corpus_bleu(corp(["a"]), corp(["a"], scheme="char"))

    def test_reordering_invariance(self):
        hyps = ["the cat sat", "dogs bark at night", "rain falls today"]
        refs = ["the cat sat down", "dogs bark at night", "rain fell today"]
        base = corpus_bleu(corp(hyps), corp(refs))
        flipped = corpus_bleu(corp(hyps[::-1]), corp(refs[::-1]))
        assert flipped.bleu == pytest.approx(base.bleu, abs=1e-12)

    @given(st.lists(
        st.tuples(st.lists(st.sampled_from("abcde"), min_size=1, max_size=8),
                  st.lists(st.sampled_from("abcde"), min_size=1, max_size=8)),
        min_size=1, max_size=6))
    def test_range_and_identity_characterization(self, segs):
        hyps = TokenizedCorpus(tuple(tuple(h) for h, _ in segs), "char")
        refs = TokenizedCorpus(tuple(tuple(r) for _, r in segs), "char")
        report = corpus_bleu(hyps, refs)
        assert 0.0 <= report.bleu <= 100.0 + 1e-9
        if report.bleu == pytest.approx(100.0, abs=1e-9):
            assert hyps.segments == refs.segments

    def test_bp_formula(self):
        report = corpus_bleu(corp(["a b c d e"]), corp(["a b c d e f g"]))
        assert report.brevity_penalty == pytest.approx(math.exp(1 - 7 / 5))


class TableAsr:
    """Test double: fixed audio_ref -> transcript mapping."""

    def __init__(self, table):
        self.table = table

    def run(self, inputs):
        return [self.table[x] for x in inputs]


def manifest_pair(texts, transcripts=None):
    gen = Manifest(records=tuple(
        Utterance(id=f"u{i}", audio_ref=f"wav/{i}.wav") for i in range(len(texts))))
    ref = Manifest(records=tuple(
        Utterance(id=f"u{i}", text=t) for i, t in enumerate(texts)))
    table = {f"wav/{i}.wav": (transcripts or texts)[i] for i in range(len(texts))}
    return gen, ref, TableAsr(table)


class TestAsrBleu:
    def test_oracle_asr_scores_100(self):
        gen, ref, asr = manifest_pair(["the cat sat on the mat", "a second sentence here"])
        assert asr_bleu(gen, ref, asr, scheme="word13a").bleu == pytest.approx(100.0)

    def test_empty_transcripts_score_zero(self):
        texts = ["the cat sat on the mat", "a second sentence here"]
        gen, ref, asr = manifest_pair(texts, transcripts=["", ""])
        assert asr_bleu(gen, ref, asr, scheme="word13a").bleu == 0.0

    def test_pipeline_equals_direct_composition(self):
        texts = [f"sentence number {i} with shared words" for i in range(10)]
        transcripts = list(texts)
        transcripts[4] = "sentence count 4 with shared words"
        gen, ref, asr = manifest_pair(texts, transcripts)
        via_pipeline = asr_bleu(gen, ref, asr, scheme="word13a")
        direct = corpus_bleu(corp(transcripts), corp(texts))
        assert via_pipeline.bleu == pytest.approx(direct.bleu, abs=1e-9)
        assert via_pipeline.precisions == direct.precisions

    def test_id_misalignment(self):
        gen, ref, asr = manifest_pair(["a b c"])
        other = Manifest(records=(Utterance(id="different", text="a b c"),))
        with pytest.raises(BleuError, match="align"):
            asr_bleu(gen, other, asr, scheme="word13a")

    def test_order_independent(self):
        texts = ["first sentence here", "second sentence there", "third sentence gone"]
        gen, ref, asr = manifest_pair(texts)
        shuffled = Manifest(records=ref.records[::-1])
        a = asr_bleu(gen, ref, asr, scheme="word13a")
        b = asr_bleu(gen, shuffled, asr, scheme="word13a")
        assert a == b


def _one_corpus():
    return tokenize_corpus(["a b"], "char")


# each refusal: (a call given a scratch directory, its error, its message)
REFUSALS = {
    "tokenizer tag": (lambda tmp: TokenizedCorpus(segments=(), tokenizer_tag="nope"),
                      BleuError, "unknown tokenizer 'nope'"),
    "smoothing": (lambda tmp: corpus_bleu(_one_corpus(), _one_corpus(), smoothing="add1"),
                  BleuError, "unknown smoothing 'add1'; expected 'none' or 'exp'"),
    "empty ASR corpus": (lambda tmp: asr_bleu(Manifest(), Manifest(),
                                              make_adapter("asr", "asr", "mock:identity"), "char"),
                         BleuError, "empty corpus"),
    "no audio reference": (lambda tmp: asr_bleu(
        Manifest(records=(Utterance(id="u1"),)), Manifest(records=(Utterance(id="u1"),)),
        make_adapter("asr", "asr", "mock:identity"), "char"),
                           BleuError, "record 'u1' has no audio reference to transcribe"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_refusals(tmp_path, name):
    call, error, message = REFUSALS[name]
    with pytest.raises(error) as info:
        call(tmp_path)
    assert str(info.value) == message.format(tmp=tmp_path)
