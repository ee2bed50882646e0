"""Parallel-data mining: exact kNN, margin scoring, thresholding, overlap filtering.

Search is exact (full cosine table, chunked over queries); there is no
approximate index. Margin scoring follows the ratio form

    score(x, y) = cos(x, y) / ((mean cos of x's k neighbors
                                + mean cos of y's k neighbors) / 2)

with distance and absolute variants available behind ``Margin``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .corpus import Segment
from .embed import EmbeddingMatrix, cosine_matrix
from .parallel import chunk_ranges, map_chunks


class MiningError(ValueError):
    pass


class Margin(str, Enum):
    """Margin scoring variants; RATIO is the default."""

    RATIO = "ratio"
    DISTANCE = "distance"
    ABSOLUTE = "absolute"


class Direction(str, Enum):
    FORWARD = "forward"
    BACKWARD = "backward"
    INTERSECT = "intersect"


@dataclass(frozen=True)
class NeighborList:
    """Cosine neighbors of one query, ordered by descending similarity."""

    query_index: int
    neighbors: tuple[tuple[int, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "neighbors",
                           tuple((int(i), float(c)) for i, c in self.neighbors))
        cosines = [c for _, c in self.neighbors]
        if any(b > a for a, b in zip(cosines, cosines[1:])):
            raise MiningError("neighbor cosines must be non-increasing")
        indices = [i for i, _ in self.neighbors]
        if len(set(indices)) != len(indices):
            raise MiningError("neighbor indices must be distinct")

    def mean_cosine(self) -> float:
        if not self.neighbors:
            raise MiningError("empty neighbor list has no mean cosine")
        return sum(c for _, c in self.neighbors) / len(self.neighbors)


@dataclass(frozen=True)
class MinedPair:
    """A scored candidate alignment between a source item and a target item."""

    src_id: str
    tgt_id: str
    score: float
    src_segment: Segment | None = None
    tgt_segment: Segment | None = None

    def __post_init__(self):
        if not self.src_id or not self.tgt_id:
            raise MiningError("pair ids must be nonempty")
        if not math.isfinite(self.score):
            raise MiningError(f"pair score must be finite, got {self.score!r}")


def knn(queries: EmbeddingMatrix, database: EmbeddingMatrix, k_nn: int,
        threads: int = 1) -> list[NeighborList]:
    """Exact top-``k_nn`` cosine neighbors per query, ties broken by lower index."""
    if k_nn < 1:
        raise MiningError(f"k_nn must be >= 1, got {k_nn}")
    if database.rows == 0:
        raise MiningError("empty database")
    if queries.dim != database.dim:
        raise MiningError(f"dimension mismatch: {queries.dim} vs {database.dim}")
    k = min(k_nn, database.rows)

    def one_chunk(bounds: tuple[int, int]) -> list[NeighborList]:
        lo, hi = bounds
        sims = cosine_matrix(queries.data[lo:hi], database.data)
        out = []
        for r in range(hi - lo):
            order = np.argsort(-sims[r], kind="stable")[:k]
            out.append(NeighborList(
                query_index=lo + r,
                neighbors=tuple((int(j), float(sims[r, j])) for j in order)))
        return out

    parts = map_chunks(one_chunk, chunk_ranges(queries.rows), threads)
    return [nl for part in parts for nl in part]


def margin_score(x_idx: int, y_idx: int, cos_xy: float,
                 nn_x: NeighborList, nn_y: NeighborList,
                 margin: Margin = Margin.RATIO) -> float:
    """Score a candidate pair against its two neighborhood means."""
    if nn_x.query_index != x_idx or nn_y.query_index != y_idx:
        raise MiningError("neighbor lists do not belong to the scored pair")
    if len(nn_x.neighbors) != len(nn_y.neighbors) or not nn_x.neighbors:
        raise MiningError("both neighbor lists must have the same nonzero length")
    if margin is Margin.ABSOLUTE:
        return float(cos_xy)
    denom = (nn_x.mean_cosine() + nn_y.mean_cosine()) / 2.0
    if margin is Margin.DISTANCE:
        return float(cos_xy - denom)
    if denom <= 0.0:
        raise MiningError(f"degenerate neighborhood: denominator {denom} <= 0")
    return float(cos_xy) / denom


def _margin_table(cos_fwd: np.ndarray, k: int, margin: Margin) -> np.ndarray:
    """Margin scores for every (query, database) pair from the full cosine table."""
    if margin is Margin.ABSOLUTE:
        return cos_fwd
    top_q = -np.sort(-cos_fwd, axis=1)[:, :k].mean(axis=1)
    top_d = -np.sort(-cos_fwd, axis=0)[:k, :].mean(axis=0)
    denom = (top_q[:, None] + top_d[None, :]) / 2.0
    if margin is Margin.DISTANCE:
        return cos_fwd - denom
    if (denom <= 0.0).any():
        raise MiningError("degenerate neighborhood: nonpositive margin denominator")
    return cos_fwd / denom


def mine_pairs(src: EmbeddingMatrix, tgt: EmbeddingMatrix, k_nn: int = 4,
               threshold: float = -math.inf,
               direction: Direction | str = Direction.FORWARD,
               margin: Margin | str = Margin.RATIO,
               threads: int = 1) -> list[MinedPair]:
    """Mine scored pairs above ``threshold``.

    Each source row is paired with the margin-argmax among its ``k_nn``
    cosine neighbors (backward: the same from the target side; intersect:
    mutual argmaxes only). ``threshold=-inf`` keeps every candidate.
    Output is sorted by descending score, then (src_id, tgt_id).
    """
    direction = Direction(direction)
    margin = Margin(margin)
    if math.isnan(threshold):
        raise MiningError("threshold must not be NaN")
    if k_nn < 1:
        raise MiningError(f"k_nn must be >= 1, got {k_nn}")
    if src.dim != tgt.dim:
        raise MiningError(f"dimension mismatch: {src.dim} vs {tgt.dim}")
    if src.rows == 0 or tgt.rows == 0:
        raise MiningError("empty database")

    k = min(k_nn, src.rows, tgt.rows)

    def score_chunk(bounds: tuple[int, int]) -> np.ndarray:
        lo, hi = bounds
        return cosine_matrix(src.data[lo:hi], tgt.data)

    sims = np.concatenate(map_chunks(score_chunk, chunk_ranges(src.rows), threads))
    scores = _margin_table(sims, k, margin)

    # per-source argmax restricted to the k_nn cosine neighbors
    nn_fwd = np.argsort(-sims, axis=1, kind="stable")[:, :k]
    nn_bwd = np.argsort(-sims.T, axis=1, kind="stable")[:, :k]

    def best_of(cands: np.ndarray, row_scores: np.ndarray) -> tuple[int, float]:
        cand_scores = row_scores[cands]
        best = cand_scores.max()
        # ties resolved toward the lowest candidate index
        winner = int(cands[cand_scores == best].min())
        return winner, float(best)

    fwd_best = [best_of(nn_fwd[i], scores[i]) for i in range(src.rows)]
    bwd_best = [best_of(nn_bwd[j], scores[:, j]) for j in range(tgt.rows)]

    if direction is Direction.FORWARD:
        cands = [(i, j, s) for i, (j, s) in enumerate(fwd_best)]
    elif direction is Direction.BACKWARD:
        cands = [(i, j, s) for j, (i, s) in enumerate(bwd_best)]
    else:
        cands = [(i, j, s) for i, (j, s) in enumerate(fwd_best) if bwd_best[j][0] == i]

    pairs = [
        MinedPair(src_id=src.row_id(i), tgt_id=tgt.row_id(j), score=s)
        for i, j, s in cands if s >= threshold
    ]
    pairs.sort(key=lambda p: (-p.score, p.src_id, p.tgt_id))
    return pairs


def _overlap_ratio(a: Segment, b: Segment) -> float:
    inter = a.overlap_s(b)
    return inter / min(a.duration_s, b.duration_s)


def filter_overlap(pairs: Sequence[MinedPair], max_overlap: float,
                   side: str = "src") -> list[MinedPair]:
    """Greedy selection in descending score order under an overlap constraint.

    A pair is kept iff each of its segments on the constrained side(s)
    overlaps every already-kept segment of the same audio_id by at most
    ``max_overlap``, measured as intersection / min(segment durations).
    """
    if not 0.0 <= max_overlap <= 1.0:
        raise MiningError(f"max_overlap must be in [0, 1], got {max_overlap}")
    if side not in ("src", "tgt", "both"):
        raise MiningError(f"side must be src, tgt or both, got {side!r}")
    sides = ("src", "tgt") if side == "both" else (side,)

    def segments_of(pair: MinedPair) -> list[Segment]:
        segs = []
        for s in sides:
            seg = pair.src_segment if s == "src" else pair.tgt_segment
            if seg is None:
                raise MiningError(
                    f"pair ({pair.src_id}, {pair.tgt_id}) lacks the {s} segment "
                    "required by the overlap constraint")
            segs.append(seg)
        return segs

    ordered = sorted(pairs, key=lambda p: (-p.score, p.src_id, p.tgt_id))
    kept: list[MinedPair] = []
    by_audio: dict[str, list[Segment]] = {}
    for pair in ordered:
        segs = segments_of(pair)
        if all(_overlap_ratio(seg, prev) <= max_overlap
               for seg in segs for prev in by_audio.get(seg.audio_id, ())):
            kept.append(pair)
            for seg in segs:
                by_audio.setdefault(seg.audio_id, []).append(seg)
    return kept


def simsearch_error_rate(audio_emb: EmbeddingMatrix, text_emb: EmbeddingMatrix,
                         gold: Mapping[str, str], k_nn: int = 4) -> float:
    """Fraction of audio rows whose margin-argmax text differs from gold.

    Both matrices must carry ids; every audio id needs a gold text id
    present in ``text_emb``.
    """
    if audio_emb.ids is None or text_emb.ids is None:
        raise MiningError("simsearch evaluation needs ids on both matrices")
    text_pos = {tid: i for i, tid in enumerate(text_emb.ids)}
    for aid in audio_emb.ids:
        if aid not in gold:
            raise MiningError(f"audio id {aid!r} missing from the gold map")
        if gold[aid] not in text_pos:
            raise MiningError(f"gold text id {gold[aid]!r} not in the text embeddings")
    if audio_emb.rows == 0:
        raise MiningError("no audio rows to evaluate")

    k = min(k_nn, audio_emb.rows, text_emb.rows)
    sims = cosine_matrix(audio_emb.data, text_emb.data)
    scores = _margin_table(sims, k, Margin.RATIO)
    predictions = scores.argmax(axis=1)
    errors = sum(
        1 for i, aid in enumerate(audio_emb.ids)
        if text_emb.ids[int(predictions[i])] != gold[aid])
    return errors / audio_emb.rows


PAIRS_HEADER = ("score", "src_id", "tgt_id", "src_audio", "src_start",
                "src_end", "tgt_audio", "tgt_start", "tgt_end")


def write_pairs(pairs: Sequence[MinedPair], path: str | Path) -> None:
    lines = ["\t".join(PAIRS_HEADER)]
    for p in pairs:
        row = [repr(float(p.score)), p.src_id, p.tgt_id]
        for seg in (p.src_segment, p.tgt_segment):
            if seg is None:
                row.extend(["", "", ""])
            else:
                row.extend([seg.audio_id, repr(seg.start_s), repr(seg.end_s)])
        lines.append("\t".join(row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_pairs(path: str | Path) -> list[MinedPair]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or tuple(lines[0].split("\t")) != PAIRS_HEADER:
        raise MiningError(f"{path}: missing or invalid pairs header")
    pairs = []
    for lineno, raw in enumerate(lines[1:], start=2):
        cols = raw.split("\t")
        if len(cols) != len(PAIRS_HEADER):
            raise MiningError(f"{path}:{lineno}: expected {len(PAIRS_HEADER)} columns")
        try:
            score = float(cols[0])
            src_seg = Segment(cols[3], float(cols[4]), float(cols[5])) if cols[3] else None
            tgt_seg = Segment(cols[6], float(cols[7]), float(cols[8])) if cols[6] else None
            pairs.append(MinedPair(src_id=cols[1], tgt_id=cols[2], score=score,
                                   src_segment=src_seg, tgt_segment=tgt_seg))
        except ValueError as exc:
            raise MiningError(f"{path}:{lineno}: {exc}") from None
    return pairs
