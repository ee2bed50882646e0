from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from unitforge import corpus
from unitforge.embed import EmbeddingMatrix, write_embeddings
from unitforge.mine import MinedPair, write_pairs


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def make_matrix(array, ids=None) -> EmbeddingMatrix:
    return EmbeddingMatrix(data=np.asarray(array, dtype=np.float32), ids=ids)


def random_matrix(rng: np.random.Generator, rows: int, dim: int,
                  ids: bool = False) -> EmbeddingMatrix:
    data = rng.normal(size=(rows, dim)).astype(np.float32)
    row_ids = tuple(f"r{i}" for i in range(rows)) if ids else None
    return EmbeddingMatrix(data=data, ids=row_ids)


def build_cli_workspace(root: Path) -> dict[str, Path]:
    """Seed an input-file suite exercising every CLI subcommand."""
    rng = np.random.default_rng(99)
    root.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}

    def p(name: str) -> Path:
        paths[name] = root / name
        return paths[name]

    # manifests
    manifest = corpus.Manifest(records=tuple(
        corpus.Utterance(id=f"u{i}", lang="en" if i % 2 else "hok",
                         audio_ref=f"wav/{i}.wav", duration_s=1.0 + i,
                         speaker=f"spk{i % 3}", text=f"sentence number {i} here")
        for i in range(6)))
    corpus.write_manifest(manifest, p("m.tsv"))

    # embeddings
    feats = rng.normal(size=(40, 4)).astype(np.float32)
    write_embeddings(EmbeddingMatrix(data=feats), p("feats.emb"))
    write_embeddings(EmbeddingMatrix(data=rng.normal(size=(6, 4)).astype(np.float32)),
                     p("frames.emb"))
    write_embeddings(EmbeddingMatrix(data=rng.normal(size=(5, 3)).astype(np.float32)),
                     p("raw.emb"))

    src = rng.normal(size=(12, 6)).astype(np.float32)
    tgt = (src + rng.normal(scale=0.05, size=src.shape)).astype(np.float32)
    write_embeddings(EmbeddingMatrix(data=src), p("src.emb"))
    write_embeddings(EmbeddingMatrix(data=tgt), p("tgt.emb"))

    sep = (np.eye(8, 10) + 0.01).astype(np.float32)
    write_embeddings(EmbeddingMatrix(
        data=sep, ids=tuple(f"a{i}" for i in range(8))), p("audio.emb"))
    write_embeddings(EmbeddingMatrix(
        data=sep.copy(), ids=tuple(f"t{i}" for i in range(8))), p("text.emb"))
    p("gold.tsv").write_text("".join(f"a{i}\tt{i}\n" for i in range(8)))

    # scored pairs with segments, some overlapping
    pairs = []
    for i in range(10):
        start = float(i * 3 % 17)
        pairs.append(MinedPair(
            src_id=f"s{i}", tgt_id=f"t{i}", score=1.0 + 0.01 * i,
            src_segment=corpus.Segment(f"A{i % 2}", start, start + 6.0)))
    write_pairs(pairs, p("pairs_seg.tsv"))

    # balance inputs
    p("counts.tsv").write_text("lang\tn\nen\t900\nhok\t100\n")
    p("pools.tsv").write_text("".join(
        f"en\te{i}\n" for i in range(4)) + "".join(f"hok\th{i}\n" for i in range(3)))

    # bleu inputs
    p("hyp.txt").write_text("the cat sat on the mat\na second sentence here\n")
    p("ref.txt").write_text("the cat sat on the mat\na second sentence there\n")

    # asr-bleu inputs
    gen = corpus.Manifest(records=tuple(
        corpus.Utterance(id=f"u{i}", audio_ref=f"wav/{i}.wav") for i in range(4)))
    ref = corpus.Manifest(records=tuple(
        corpus.Utterance(id=f"u{i}", text=f"spoken sentence number {i} here")
        for i in range(4)))
    corpus.write_manifest(gen, p("gen.tsv"))
    corpus.write_manifest(ref, p("refm.tsv"))
    p("transcripts.tsv").write_text("".join(
        f"wav/{i}.wav\tspoken sentence number {i} here\n" for i in range(4)))

    # units
    p("units.txt").write_text("0 0 3 3 0 5 5 5\n2 2 2\n\n7 0 7\n")

    # cascade
    p("pipeline.json").write_text(json.dumps({
        "adapters": {"mt": "mock:upper", "t2u": "mock:char_units"},
        "stages": [{"adapter": "mt", "in": "text", "out": "zh"},
                   {"adapter": "t2u", "in": "zh", "out": "units"}],
        "filters": [{"kind": "min_length", "params": {"field": "text", "min_chars": 3}}],
    }))
    casc = corpus.Manifest(records=tuple(
        corpus.Utterance(id=f"c{i}", text=t)
        for i, t in enumerate(["hello there", "ab", "third record text"])))
    corpus.write_manifest(casc, p("casc.tsv"))

    return paths


def cli_command_matrix(paths: dict[str, Path], out: Path) -> list[tuple[str, list[str]]]:
    """(name, argv) for every subcommand; outputs land under ``out``."""
    s = str
    return [
        ("manifest-stats", ["manifest", "stats", "--in", s(paths["m.tsv"]),
                            "--out", s(out / "stats.json")]),
        ("manifest-convert", ["manifest", "convert", "--in", s(paths["m.tsv"]),
                              "--out", s(out / "m.jsonl")]),
        ("manifest-convert-back", ["manifest", "convert", "--in", s(out / "m.jsonl"),
                                   "--out", s(out / "m_back.tsv")]),
        ("quantize-fit", ["quantize", "fit", "--k", "4", "--seed", "5",
                          "--in", s(paths["feats.emb"]), "--out", s(out / "cb.emb")]),
        ("quantize-assign", ["quantize", "assign", "--codebook", s(out / "cb.emb"),
                             "--in", s(paths["feats.emb"]),
                             "--out", s(out / "assigned.txt")]),
        ("units-dedup", ["units", "dedup", "--in", s(paths["units.txt"]),
                         "--out", s(out / "dedup.txt")]),
        ("units-ctc", ["units", "ctc-collapse", "--in", s(paths["units.txt"]),
                       "--blank", "0", "--out", s(out / "ctc.txt")]),
        ("embed-pool", ["embed", "pool", "--in", s(paths["frames.emb"]),
                        "--out", s(out / "pooled.emb")]),
        ("embed-normalize", ["embed", "normalize", "--in", s(paths["raw.emb"]),
                             "--out", s(out / "normed.emb")]),
        ("mine-run", ["mine", "run", "--src", s(paths["src.emb"]),
                      "--tgt", s(paths["tgt.emb"]), "--knn", "3",
                      "--threshold", "1.0", "--direction", "forward",
                      "--out", s(out / "pairs.tsv")]),
        ("mine-filter-overlap", ["mine", "filter-overlap",
                                 "--in", s(paths["pairs_seg.tsv"]),
                                 "--max-overlap", "0.2", "--side", "src",
                                 "--out", s(out / "filtered.tsv")]),
        ("mine-simsearch", ["mine", "simsearch-eval", "--audio", s(paths["audio.emb"]),
                            "--text", s(paths["text.emb"]), "--gold", s(paths["gold.tsv"]),
                            "--out", s(out / "sim.json")]),
        ("balance", ["balance", "--counts", s(paths["counts.tsv"]),
                     "--temperature", "20", "--out", s(out / "dist.json"),
                     "--pools", s(paths["pools.tsv"]), "--total", "500",
                     "--seed", "3", "--schedule-out", s(out / "sched.txt")]),
        ("bleu", ["bleu", "--hyp", s(paths["hyp.txt"]), "--ref", s(paths["ref.txt"]),
                  "--out", s(out / "bleu.json")]),
        ("asr-bleu", ["asr-bleu", "--manifest", s(paths["gen.tsv"]),
                      "--ref", s(paths["refm.tsv"]),
                      "--asr", f"mock:{paths['transcripts.tsv']}",
                      "--tokenizer", "word13a", "--out", s(out / "asrbleu.json")]),
        ("cascade-run", ["cascade", "run", "--spec", s(paths["pipeline.json"]),
                         "--in", s(paths["casc.tsv"]), "--out", s(out / "weak.tsv"),
                         "--report", s(out / "report.json")]),
    ]
