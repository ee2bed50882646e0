"""Tokenizers and 4-gram corpus BLEU, plus the ASR-BLEU pipeline wrapper.

Four tokenization schemes are supported:

* ``word13a``: the mteval-v13a word tokenization used by the standard
  BLEU tooling (entity unescaping, punctuation splitting), reproduced
  rule for rule so scores are comparable with that tooling.
* ``char``: one token per non-space character.
* ``tailo_syllable``: Tai-lo romanized syllables, split on hyphens and
  whitespace; tone diacritics are converted to trailing tone digits.
* ``tailo_initial_final``: each syllable further split into its initial
  consonant and its final-with-tone, both emitted as tokens.

BLEU uses corpus-level modified n-gram precisions with clipping, a
geometric mean over orders 1..4 and the standard brevity penalty. The
default smoothing is none (any zero precision gives BLEU 0); NIST-style
exponential smoothing is available via ``smoothing="exp"``. The corpus
counts are column sums of per-segment sufficient statistics (clipped
matches and totals per order, hypothesis and reference lengths), so they
are exact under any split of the corpus.
"""

from __future__ import annotations

import functools
import math
import re
import unicodedata
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, count
from typing import TYPE_CHECKING, Iterable, Sequence

from .corpus import Manifest

if TYPE_CHECKING:
    import numpy as np

TOKENIZER_TAGS = ("word13a", "char", "tailo_syllable", "tailo_initial_final")


class BleuError(ValueError):
    pass


# --- word13a -----------------------------------------------------------------

_13A_RULES = (
    (re.compile(r"([\{-\~\[-\` -\&\(-\+\:-\@\/])"), r" \1 "),
    (re.compile(r"([^0-9])([\.,])"), r"\1 \2 "),
    (re.compile(r"([\.,])([^0-9])"), r" \1 \2"),
    (re.compile(r"([0-9])(-)"), r"\1 \2 "),
)


def _tokenize_13a(line: str) -> list[str]:
    norm = line.rstrip()
    norm = norm.replace("<skipped>", "")
    norm = norm.replace("-\n", "")
    norm = norm.replace("\n", " ")
    norm = norm.replace("&quot;", '"')
    norm = norm.replace("&amp;", "&")
    norm = norm.replace("&lt;", "<")
    norm = norm.replace("&gt;", ">")
    norm = f" {norm} "
    for pattern, repl in _13A_RULES:
        norm = pattern.sub(repl, norm)
    return norm.split()


# --- Tai-lo ------------------------------------------------------------------

# initial consonant inventory, longest-match first
TAILO_INITIALS = ("tsh", "kh", "ng", "ph", "th", "ts",
                  "b", "g", "h", "j", "k", "l", "m", "n", "p", "s", "t")

_TAILO_VOWELS = frozenset("aeiou")
# finals with no vowel: syllabic nasals, optionally with a glottal coda
_TAILO_NASAL_FINALS = frozenset({"m", "mh", "ng", "ngh"})

_TONE_MARKS = {
    "́": "2",  # acute
    "̀": "3",  # grave
    "̂": "5",  # circumflex
    "̌": "6",  # caron
    "̄": "7",  # macron
    "̍": "8",  # vertical line above
    "̋": "9",  # double acute
}

# The syllable functions are pure, and Tai-lo has a few thousand distinct
# syllables, so they are memoized; the bound caps memory on arbitrary text.
_SYLLABLE_CACHE_SIZE = 1 << 16


@functools.lru_cache(maxsize=_SYLLABLE_CACHE_SIZE)
def tailo_digit_form(syllable: str) -> str:
    """Normalize one syllable to lowercase digit-tone form.

    Tone diacritics are stripped and emitted as a trailing digit; an
    already-trailing digit wins over any diacritic.
    """
    decomposed = unicodedata.normalize("NFD", syllable.casefold())
    tone = ""
    kept = []
    for ch in decomposed:
        mark = _TONE_MARKS.get(ch)
        if mark is not None:
            tone = tone or mark
        else:
            kept.append(ch)
    body = unicodedata.normalize("NFC", "".join(kept))
    if body and body[-1].isdigit():
        return body
    return body + tone


@functools.lru_cache(maxsize=_SYLLABLE_CACHE_SIZE)
def tailo_split_syllable(syllable: str) -> tuple[str, str]:
    """Split a Tai-lo syllable into (initial, final_with_tone).

    The initial is the longest inventory prefix that leaves a
    pronounceable final: one starting with a vowel, or a syllabic nasal
    (m/ng, optionally with -h). Vowel-onset syllables and bare syllabic
    nasals have an empty initial. Always ``initial + final == syllable``
    (after digit-form normalization).
    """
    if not syllable:
        raise BleuError("cannot split an empty syllable")
    norm = tailo_digit_form(syllable)
    body = norm[:-1] if norm and norm[-1].isdigit() else norm
    for initial in TAILO_INITIALS:
        if body.startswith(initial):
            rest = body[len(initial):]
            if rest and (rest[0] in _TAILO_VOWELS or rest in _TAILO_NASAL_FINALS):
                return initial, norm[len(initial):]
    return "", norm


# --- tokenization ------------------------------------------------------------

@functools.lru_cache(maxsize=_SYLLABLE_CACHE_SIZE)
def _initial_final_tokens(syllable: str) -> tuple[str, ...]:
    """The ``tailo_initial_final`` tokens of one raw syllable."""
    initial, final = tailo_split_syllable(tailo_digit_form(syllable))
    return (initial, final) if initial else (final,)


def _raw_syllables(text: str) -> list[str]:
    r"""Split on hyphens and on every character for which ``str.isspace()``
    is true, dropping empty tokens: the same tokens as splitting on the
    regex ``[\s\-]+``, whose ``\s`` matches exactly those characters in
    a str pattern, but in one C-level pass."""
    return text.replace("-", " ").split()


def tokenize(text: str, scheme: str) -> list[str]:
    """Tokenize one segment under the given scheme tag."""
    if scheme == "word13a":
        return _tokenize_13a(text)
    if scheme == "char":
        return list("".join(text.split()))
    if scheme == "tailo_syllable":
        return list(map(tailo_digit_form, _raw_syllables(text)))
    if scheme == "tailo_initial_final":
        return list(chain.from_iterable(map(_initial_final_tokens, _raw_syllables(text))))
    raise BleuError(f"unknown tokenizer {scheme!r}; expected one of {TOKENIZER_TAGS}")


@dataclass(frozen=True)
class TokenizedCorpus:
    """Per-segment token lists plus the scheme that produced them."""

    segments: tuple[tuple[str, ...], ...]
    tokenizer_tag: str

    def __post_init__(self):
        if self.tokenizer_tag not in TOKENIZER_TAGS:
            raise BleuError(f"unknown tokenizer {self.tokenizer_tag!r}")
        object.__setattr__(self, "segments",
                           tuple(tuple(seg) for seg in self.segments))

    def __len__(self) -> int:
        return len(self.segments)


def tokenize_corpus(lines: Iterable[str], scheme: str) -> TokenizedCorpus:
    return TokenizedCorpus(
        segments=tuple(tuple(tokenize(line, scheme)) for line in lines),
        tokenizer_tag=scheme)


# --- BLEU --------------------------------------------------------------------

@dataclass(frozen=True)
class BleuReport:
    bleu: float
    precisions: tuple[float, ...]
    brevity_penalty: float
    hyp_len: int
    ref_len: int
    smoothing: str = "none"

    def to_dict(self) -> dict:
        return {
            "bleu": self.bleu,
            "precisions": list(self.precisions),
            "brevity_penalty": self.brevity_penalty,
            "hyp_len": self.hyp_len,
            "ref_len": self.ref_len,
            "smoothing": self.smoothing,
        }


_NO_KEY = 2**63 - 1  # the int64 maximum
_STATS_BLOCK = 256  # segments counted together; bounds the working memory


def _bleu_stats(hyps: TokenizedCorpus, refs: TokenizedCorpus, max_n: int) -> np.ndarray:
    """Per-segment BLEU sufficient statistics, one int64 row per segment.

    Columns ``0..max_n-1`` hold the clipped n-gram matches of orders
    1..max_n, columns ``max_n..2*max_n-1`` the hypothesis n-gram totals,
    then the hypothesis length and the reference length. Rows depend on
    their own segment only, so blocks of segments are counted separately.
    """
    import numpy as np

    stats = np.empty((len(hyps), 2 * max_n + 2), dtype=np.int64)
    for lo in range(0, len(hyps), _STATS_BLOCK):
        hi = lo + _STATS_BLOCK
        stats[lo:hi] = _block_stats(hyps.segments[lo:hi], refs.segments[lo:hi], max_n)
    return stats


def _block_stats(hyps: Sequence[Sequence[str]], refs: Sequence[Sequence[str]],
                 max_n: int) -> np.ndarray:
    """The :func:`_bleu_stats` rows of one block of ``n_seg`` segments.

    With ``V`` distinct tokens in the block, the id of an n-gram is its raw
    key ``id(first n-1 tokens) * V + last token``, in a key space of
    ``n_gram = V**n`` ids, and ``segment * n_gram + id`` counts it per
    segment. Such keys stay below the ``_NO_KEY`` sentinel while
    ``n_seg * V**n`` does, which holds for every order up to 4 when
    ``V`` is below about 13.8k at 256 segments. Before an order whose keys
    could reach the sentinel, the ids are renumbered densely by sorting, so
    ``n_gram`` falls to the number of distinct ids. The counts are then
    exact while ``n_seg`` times the square of the block's token count stays
    below the sentinel: under about 1.9e8 tokens in a 256-segment block.
    """
    import numpy as np

    n_seg = len(hyps)
    hyp_lens = np.fromiter(map(len, hyps), np.int64, n_seg)
    ref_lens = np.fromiter(map(len, refs), np.int64, n_seg)
    lens = np.concatenate([hyp_lens, ref_lens])
    # ids in order of first occurrence, interned in one pass of C-level calls
    vocab = defaultdict(count().__next__)
    tokens = np.fromiter(map(vocab.__getitem__, chain.from_iterable(chain(hyps, refs))),
                         np.int64, int(lens.sum()))
    n_tok = len(tokens)
    n_hyp_tok = int(hyp_lens.sum())
    seg = np.repeat(np.arange(2 * n_seg) % n_seg, lens)
    # tokens from each position to the end of its segment, inclusive
    left = np.repeat(np.cumsum(lens), lens) - np.arange(n_tok)

    stats = np.zeros((n_seg, 2 * max_n + 2), dtype=np.int64)
    stats[:, -2] = hyp_lens
    stats[:, -1] = ref_lens
    gram, n_gram = tokens, len(vocab)  # id of the n-gram at each position, < n_gram
    for n in range(1, max_n + 1):
        if n > 1:
            gram = gram[:max(n_tok - n + 1, 0)]
            if n_seg * n_gram * len(vocab) >= _NO_KEY:
                distinct, gram = np.unique(gram, return_inverse=True)
                n_gram = len(distinct)
            gram = gram * len(vocab) + tokens[n - 1:]
            n_gram *= len(vocab)
        valid = left[:len(gram)] >= n
        keys = seg[:len(gram)] * n_gram + gram  # one key per (segment, n-gram)
        hyp_keys, hyp_counts = np.unique(
            keys[:n_hyp_tok][valid[:n_hyp_tok]], return_counts=True)
        # the sentinel exceeds every key, so each search lands in range
        ref_keys, ref_counts = np.unique(
            np.append(keys[n_hyp_tok:][valid[n_hyp_tok:]], _NO_KEY), return_counts=True)
        at = np.searchsorted(ref_keys, hyp_keys)
        clipped = np.where(ref_keys[at] == hyp_keys, np.minimum(hyp_counts, ref_counts[at]), 0)
        stats[:, n - 1] = np.bincount(hyp_keys // n_gram, weights=clipped, minlength=n_seg)
        stats[:, max_n + n - 1] = np.maximum(hyp_lens - (n - 1), 0)
    return stats


def corpus_bleu(hyps: TokenizedCorpus, refs: TokenizedCorpus,
                smoothing: str = "none") -> BleuReport:
    """Corpus BLEU-4 over aligned tokenized segments (single reference)."""
    max_n = 4
    if smoothing not in ("none", "exp"):
        raise BleuError(f"unknown smoothing {smoothing!r}; expected 'none' or 'exp'")
    if len(hyps) != len(refs):
        raise BleuError(f"segment count mismatch: {len(hyps)} hyps vs {len(refs)} refs")
    if len(hyps) == 0:
        raise BleuError("empty corpus")
    if hyps.tokenizer_tag != refs.tokenizer_tag:
        raise BleuError(f"tokenizer mismatch: {hyps.tokenizer_tag} vs {refs.tokenizer_tag}")

    sums = _bleu_stats(hyps, refs, max_n).sum(axis=0).tolist()
    correct, total = sums[:max_n], sums[max_n:2 * max_n]
    hyp_len, ref_len = sums[-2:]

    precisions = [0.0] * max_n
    smooth_factor = 1.0
    for n in range(max_n):
        if total[n] == 0:
            break
        if correct[n] == 0:
            if smoothing == "exp":
                smooth_factor *= 2.0
                precisions[n] = 1.0 / (smooth_factor * total[n])
        else:
            precisions[n] = correct[n] / total[n]

    if hyp_len == 0:
        brevity_penalty = 0.0
    elif hyp_len < ref_len:
        brevity_penalty = math.exp(1.0 - ref_len / hyp_len)
    else:
        brevity_penalty = 1.0

    if all(p > 0.0 for p in precisions) and brevity_penalty > 0.0:
        log_mean = sum(math.log(p) for p in precisions) / max_n
        bleu = brevity_penalty * math.exp(log_mean) * 100.0
    else:
        bleu = 0.0
    return BleuReport(bleu=bleu, precisions=tuple(precisions),
                      brevity_penalty=brevity_penalty,
                      hyp_len=hyp_len, ref_len=ref_len, smoothing=smoothing)


def asr_bleu(generated: Manifest, reference: Manifest, asr, scheme: str,
             smoothing: str = "none") -> BleuReport:
    """Transcribe generated audio with ``asr`` and score against reference text.

    Manifests must cover the same utterance ids; transcription runs in id
    order so results do not depend on manifest ordering. ``asr`` is any
    adapter exposing ``run(list[str]) -> list[str]`` over audio references.
    """
    gen_ids = set(generated.ids())
    ref_ids = set(reference.ids())
    if gen_ids != ref_ids:
        missing = sorted(gen_ids ^ ref_ids)[:5]
        raise BleuError(f"manifests do not align by id (first differences: {missing})")

    gen_by_id = {rec.id: rec for rec in generated}
    ref_by_id = {rec.id: rec for rec in reference}
    order = sorted(gen_ids)
    audio_refs = []
    for rec_id in order:
        audio = gen_by_id[rec_id].audio_ref
        if not audio:
            raise BleuError(f"record {rec_id!r} has no audio reference to transcribe")
        audio_refs.append(audio)

    transcripts = asr.run(audio_refs)
    ref_texts = [ref_by_id[rec_id].text or "" for rec_id in order]
    return corpus_bleu(tokenize_corpus(transcripts, scheme),
                       tokenize_corpus(ref_texts, scheme), smoothing=smoothing)
