"""Seeded input generators for the three benchmark workloads.

Each generator writes the files the library reads (EMB1 matrices, TSV
manifests, mock tables) plus two JSON files that only the benchmark reads:

* ``inputs.json``: the workload's input properties and the reason it exists;
* ``truth.json``: what the output checks need (silence frame positions)
  and the values the benchmark passes to the library as arguments (gold
  ids, segment windows, shard lists).

Sizes are fixed by the preset, so every seed yields inputs of the same
shape; the seed only chooses the contents and their order. The same
seed gives byte-identical files.

Usage: python3 bench/gen.py --workload units --seed 1 --out DIR [--size tiny]
"""

from __future__ import annotations

import argparse
import json
import struct
import unicodedata
from pathlib import Path
from statistics import NormalDist

import numpy as np

WORKLOADS = ("units", "mining", "relabel")

WHY = {
    "units": "quantize dominates: one k-means fit plus many small per-utterance assigns, "
             "with silence frames that sit on near-ties between centroids",
    "mining": "embed and mine dominate: float64 cosine tables, margin argmax, "
              "pair round-trip and the overlap filter over hundreds of segments per audio",
    "relabel": "warm cascade reading the adapter cache, then manifest stats, temperature "
               "balancing, ASR-BLEU and corpus BLEU over the kept corpus",
}

SIZES = {
    "full": {
        "units": {"dim": 768, "k": 100, "train_frames": 800, "utterances": 40,
                  "median_frames": 150, "min_frames": 25, "max_frames": 750,
                  "speech_clusters": 120, "silence_pairs": 3, "silence_share": 0.10},
        "mining": {"dim": 1024, "shards": 6, "rows": 1000, "partner_share": 0.70,
                   "dup_share": 0.01, "recordings": 2},
        "relabel": {"records": 1600, "shards": 40, "languages": 8,
                     "min_words": 4, "max_words": 24, "repeat_share": 0.15,
                     "code_switch_share": 0.10, "asr_missing_share": 0.01},
    },
    "tiny": {
        "units": {"dim": 16, "k": 6, "train_frames": 120, "utterances": 12,
                  "median_frames": 20, "min_frames": 5, "max_frames": 60,
                  "speech_clusters": 8, "silence_pairs": 1, "silence_share": 0.10},
        "mining": {"dim": 32, "shards": 2, "rows": 120, "partner_share": 0.70,
                   "dup_share": 0.02, "recordings": 2},
        "relabel": {"records": 160, "shards": 12, "languages": 8,
                     "min_words": 4, "max_words": 24, "repeat_share": 0.15,
                     "code_switch_share": 0.10, "asr_missing_share": 0.02},
    },
}

# sliding windows over the long recordings of a mining shard
WINDOW_S = 4.0
HOP_S = 2.5


def write_emb(path: Path, data: np.ndarray, ids: list[str] | None = None) -> None:
    """EMB1: magic, u32 rows, u32 dim, little-endian float32 rows; ids sidecar."""
    data = np.ascontiguousarray(data, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(b"EMB1")
        fh.write(struct.pack("<II", data.shape[0], data.shape[1]))
        fh.write(data.tobytes())
    if ids is not None:
        Path(str(path) + ".ids").write_text("".join(i + "\n" for i in ids), encoding="utf-8")


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def lognormal_lengths(n: int, median: float, lo: int, hi: int, sigma: float = 0.55) -> list[int]:
    """Lengths at the n mid-quantiles of a clipped log-normal: a fixed multiset."""
    z = [NormalDist().inv_cdf((i + 0.5) / n) for i in range(n)]
    return [int(min(hi, max(lo, round(median * float(np.exp(sigma * q)))))) for q in z]


# --- units ---------------------------------------------------------------------

def gen_units(out: Path, seed: int, p: dict) -> None:
    rng = np.random.default_rng([seed, 1])
    dim = p["dim"]
    speech = rng.standard_normal((p["speech_clusters"], dim))
    # silence: pairs of points away from speech, each of which the fit gives
    # its own centroid; frames sit tightly on a point or on the midpoint of
    # its pair, where the two nearest centroids nearly tie
    points = 3.0 * rng.standard_normal((2 * p["silence_pairs"], dim))
    mids = (points[0::2] + points[1::2]) / 2.0

    def speech_frames(n: int) -> np.ndarray:
        # runs of 1-6 frames from the same cluster, so dedup has work to do
        labels = []
        while len(labels) < n:
            c = int(rng.integers(0, len(speech)))
            labels.extend([c] * int(rng.integers(1, 7)))
        labels = np.array(labels[:n])
        return speech[labels] + rng.standard_normal((n, dim))

    def silence_frames(n: int, with_mids: bool) -> tuple[np.ndarray, int]:
        which = rng.integers(0, len(points), size=n)
        spread = 1e-3 if with_mids else 1e-5
        frames = points[which] + spread * rng.standard_normal((n, dim))
        on_mid = np.zeros(n, dtype=bool)
        if with_mids:
            on_mid = rng.random(n) < 0.4
            pair = rng.integers(0, len(mids), size=n)
            frames[on_mid] = mids[pair[on_mid]] + 1e-6 * rng.standard_normal((int(on_mid.sum()), dim))
        return frames, int(on_mid.sum())

    n_train = p["train_frames"]
    n_sil = int(round(n_train * p["silence_share"]))
    train = np.vstack([speech_frames(n_train - n_sil), silence_frames(n_sil, with_mids=False)[0]])
    train = train[rng.permutation(n_train)]
    write_emb(out / "train.emb", train)

    lengths = lognormal_lengths(p["utterances"], p["median_frames"], p["min_frames"], p["max_frames"])
    lengths = [lengths[i] for i in rng.permutation(len(lengths))]
    (out / "utts").mkdir()
    utts = []
    near_ties = 0
    for u, n in enumerate(lengths):
        sil = rng.random(n) < p["silence_share"]
        frames = np.empty((n, dim))
        frames[~sil] = speech_frames(int((~sil).sum()))
        frames[sil], on_mid = silence_frames(int(sil.sum()), with_mids=True)
        near_ties += on_mid
        uid = f"utt{u:03d}"
        write_emb(out / "utts" / f"{uid}.emb", frames)
        utts.append({"id": uid, "emb": f"utts/{uid}.emb", "frames": n,
                     "silence": np.flatnonzero(sil).tolist()})

    total = sum(lengths)
    write_json(out / "inputs.json", {
        "workload": "units", "seed": seed, "why": WHY["units"],
        "dim": dim, "k": p["k"], "train_frames": n_train, "utterances": len(utts),
        "frames": total, "median_frames": sorted(lengths)[len(lengths) // 2],
        "silence_frame_share": round(sum(len(u["silence"]) for u in utts) / total, 4),
        "near_tie_frame_share": round(near_ties / total, 4),
    })
    write_json(out / "truth.json", {"utterances": utts})


# --- mining --------------------------------------------------------------------

def gen_mining(out: Path, seed: int, p: dict) -> None:
    rng = np.random.default_rng([seed, 2])
    n, dim = p["rows"], p["dim"]
    shards = []
    for s in range(p["shards"]):
        n_pair = int(round(n * p["partner_share"]))
        latent = rng.standard_normal((n_pair, dim))
        src = np.vstack([latent + 0.6 * rng.standard_normal((n_pair, dim)),
                         rng.standard_normal((n - n_pair, dim))])
        tgt = np.vstack([latent + 0.6 * rng.standard_normal((n_pair, dim)),
                         rng.standard_normal((n - n_pair, dim))])
        # exact duplicates among the targets exercise the lower-index tie-break
        n_dup = max(1, int(round(n * p["dup_share"])))
        dup_from = rng.choice(n, size=n_dup, replace=False)
        dup_to = rng.choice(np.setdiff1d(np.arange(n), dup_from), size=n_dup, replace=False)
        tgt[dup_to] = tgt[dup_from]
        src_perm, tgt_perm = rng.permutation(n), rng.permutation(n)
        src_ids = [f"s{s}-{i:05d}" for i in range(n)]
        tgt_ids = [f"t{s}-{j:05d}" for j in range(n)]
        # row r of a file holds original row perm[r]; gold pairs original row i on both sides
        src_pos, tgt_pos = np.argsort(src_perm), np.argsort(tgt_perm)
        write_emb(out / f"shard{s}.src.emb", src[src_perm], src_ids)
        write_emb(out / f"shard{s}.tgt.emb", tgt[tgt_perm], tgt_ids)
        gold = {src_ids[int(src_pos[i])]: tgt_ids[int(tgt_pos[i])] for i in range(n)}
        # every source row is one window of a long recording
        rec = rng.integers(0, p["recordings"], size=n)
        segments = {}
        for r in range(p["recordings"]):
            rows = np.flatnonzero(rec == r)
            for w, row in enumerate(rows[rng.permutation(len(rows))]):
                start = round(w * HOP_S, 3)
                segments[src_ids[int(row)]] = [f"rec{s}-{r}", start, round(start + WINDOW_S, 3)]
        shards.append({"src": f"shard{s}.src.emb", "tgt": f"shard{s}.tgt.emb",
                       "gold": gold, "segments": segments})

    write_json(out / "inputs.json", {
        "workload": "mining", "seed": seed, "why": WHY["mining"],
        "dim": dim, "shards": p["shards"], "rows_per_side": n,
        "partner_share": p["partner_share"], "target_duplicate_share": p["dup_share"],
        "recordings_per_shard": p["recordings"],
        "segments_per_audio": n // p["recordings"],
        "window_s": WINDOW_S, "hop_s": HOP_S,
    })
    write_json(out / "truth.json", {"shards": shards})


# --- relabel ------------------------------------------------------------------

_INITIALS = ("", "p", "ph", "b", "m", "t", "th", "n", "l", "k", "kh", "g", "ng",
             "h", "ts", "tsh", "s", "j")
_FINALS = ("a", "e", "i", "o", "u", "oo", "ai", "au", "ia", "iu", "ua", "ue", "ui",
           "an", "am", "ang", "ing", "ong", "ian", "uan", "ik", "ak", "ok", "ah", "eh", "ioh")
_TONES = ("", "́", "̀", "̂", "̄", "̍")
_SWITCH_WORDS = ("computer", "hotel", "meeting", "okay", "taxi", "phone", "xianzai",
                 "dianhua", "gongsi", "laoshi", "bus", "coffee")
LANGS = ("nan", "cmn", "hak", "eng", "jpn", "vie", "ind", "tha")


def _syllable(rng: np.random.Generator) -> str:
    final = _FINALS[int(rng.integers(0, len(_FINALS)))]
    tone = _TONES[int(rng.integers(0, len(_TONES)))]
    if tone and final[-1] not in "ptkh":
        # tone mark on a, then o, then e, else the last vowel
        vowels = [i for i, ch in enumerate(final) if ch in "aoeiu"]
        at = next((final.index(v) for v in "aoe" if v in final), vowels[-1])
        final = final[:at + 1] + tone + final[at + 1:]
    return unicodedata.normalize("NFC", _INITIALS[int(rng.integers(0, len(_INITIALS)))] + final)


def _sentence(rng: np.random.Generator, lo: int, hi: int) -> list[str]:
    return ["-".join(_syllable(rng) for _ in range(int(rng.integers(1, 4))))
            for _ in range(int(rng.integers(lo, hi + 1)))]


def gen_corpus(out: Path, seed: int, p: dict, workload: str) -> None:
    rng = np.random.default_rng([seed, 3])
    n = p["records"]
    weights = 1.0 / np.arange(1, p["languages"] + 1) ** 1.2
    langs = rng.choice(p["languages"], size=n, p=weights / weights.sum())
    texts: list[list[str]] = []
    repeats = 0
    for i in range(n):
        if i and rng.random() < p["repeat_share"]:
            texts.append(texts[int(rng.integers(0, i))])
            repeats += 1
        else:
            texts.append(_sentence(rng, p["min_words"], p["max_words"]))

    table_rows, switched, missing = [], 0, 0
    records = []
    for i, words in enumerate(texts):
        rid = f"utt{i:06d}"
        audio = f"wav/{rid}.wav"
        asr = list(words)
        roll = rng.random()
        if roll < p["code_switch_share"]:
            for w in range(len(asr)):
                if rng.random() < 0.6:
                    asr[w] = _SWITCH_WORDS[int(rng.integers(0, len(_SWITCH_WORDS)))]
            switched += 1
        else:
            # a few recognition errors: 0-3 substituted syllable groups
            for _ in range(int(rng.integers(0, 4))):
                w = int(rng.integers(0, len(asr)))
                asr[w] = "-".join(_syllable(rng) for _ in range(asr[w].count("-") + 1))
        if rng.random() < p["asr_missing_share"]:
            missing += 1
        else:
            table_rows.append(f"{audio}\t{' '.join(asr)}\n")
        duration = round(0.45 * sum(w.count("-") + 1 for w in words) + float(rng.uniform(0.3, 1.2)), 3)
        records.append((rid, LANGS[int(langs[i])], audio, repr(duration),
                        f"spk{int(rng.integers(0, 200)):03d}", " ".join(words)))

    (out / "shards").mkdir()
    bounds = np.linspace(0, n, p["shards"] + 1).round().astype(int)
    shard_names = []
    for s in range(p["shards"]):
        name = f"shards/shard{s:02d}.tsv"
        rows = ["id\tlang\taudio\tduration_s\tspeaker\ttext\tunits\n"]
        rows += ["\t".join(rec) + "\t\n" for rec in records[bounds[s]:bounds[s + 1]]]
        (out / name).write_text("".join(rows), encoding="utf-8")
        shard_names.append(name)
    (out / "asr_table.tsv").write_text("".join(table_rows), encoding="utf-8")

    write_json(out / "inputs.json", {
        "workload": workload, "seed": seed, "why": WHY[workload],
        "records": n, "shards": p["shards"], "languages": p["languages"],
        "words_per_text": [p["min_words"], p["max_words"]],
        "repeat_share": round(repeats / n, 4),
        "code_switch_share": round(switched / n, 4),
        "asr_missing_share": round(missing / n, 4),
        "lang_counts": {LANGS[l]: int((langs == l).sum()) for l in range(p["languages"])},
    })
    write_json(out / "truth.json", {"shards": shard_names})


def generate(workload: str, seed: int, out: Path, size: str = "full") -> None:
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    params = SIZES[size][workload]
    if workload == "units":
        gen_units(out, seed, params)
    elif workload == "mining":
        gen_mining(out, seed, params)
    else:
        gen_corpus(out, seed, params, workload)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--size", choices=tuple(SIZES), default="full")
    args = ap.parse_args()
    generate(args.workload, args.seed, args.out, args.size)


if __name__ == "__main__":
    main()
