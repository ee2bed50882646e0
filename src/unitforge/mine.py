"""Parallel-data mining: exact kNN, margin scoring, thresholding, overlap filtering.

Search is exact and streamed: ``_cosine_top_k`` walks 256-row source
chunks and keeps only the top cosines per source row and per target
column, each at its own width: k and none for ``knn``, k and k for
``mine_pairs``, and for ``simsearch_error_rate`` a row shortlist of
max(k, 32) and k. One screened selection, ``_top_k``, serves both axes
of a chunk's cosine block, and merges the column candidates of up to 16
chunks at a time with those kept so far: a floor taken from group maxima,
at or below each line's k-th largest value, leaves only a few entries per
line to sort. Only the target side is held as a float64 copy; each source chunk
is converted when it is multiplied, and source norms are taken in
blocks. Beyond that copy, ``simsearch_error_rate`` needs
O(n_src·max(k, 32) + n_tgt·k + 256·n_tgt) memory, the others
O((n_src + n_tgt)·k + 256·n_tgt). It takes each row's
margin argmax from the shortlist where a rounding-safe bound rules out
every other target, and runs a second cosine product only over the rows
it leaves undecided. Margin scoring is the ratio

    score(x, y) = cos(x, y) / ((mean cos of x's k neighbors
                                + mean cos of y's k neighbors) / 2)

with distance and absolute variants available behind ``Margin``.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .corpus import ManifestError, Segment
from .embed import EmbeddingMatrix, cosine_block, row_norms
from .fileio import join_rows, numbered, write_file
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


_GROUPS = 8  # screen groups per kept entry in _top_k
_TIE_SHARE = 8  # _top_k thins ties at the floor once more than 1/8 of a block passes


def _top_k(sims: np.ndarray, k: int, axis: int = 1) -> np.ndarray:
    """Indices of the k largest values of each line of ``sims`` along ``axis``, in
    (-value, index) order: (lines, k) for rows (``axis=1``), (k, lines) for columns
    (``axis=0``), C-ordered either way; 1 <= k <= width. Exact for blocks under
    2**31 entries, which a column merge of ``_cosine_top_k`` must stay under: it
    passes (16·min(k, 256) + k)·m entries.

    The screen is exact. A line's entries fall into G = min(width, 8k) groups,
    index i into group i mod G, so the group maxima reduce over contiguous slabs.
    The k-th largest group maximum is the value of k distinct entries, so it is at
    or below the line's k-th largest value, and only the entries at or above that
    floor are sorted. At most (k-1)·ceil(width/G) of them lie above it. Ties at
    the floor can admit whole lines, but of the entries at the floor only a line's
    first k kept ones can reach its top k, so when the screen passes more than
    1/8 of the block the others are dropped before the sort.
    """
    width, lines = sims.shape[axis], sims.shape[1 - axis]
    g = min(width, _GROUPS * k)
    slabs = np.moveaxis(sims, axis, 0)  # a view, slab by slab along the line
    gmax = slabs[:g].copy(order="K")
    for lo in range(g, width, g):
        head = gmax[:min(g, width - lo)]
        np.maximum(head, slabs[lo:lo + g], out=head)
    floor = np.expand_dims(np.partition(gmax, g - k, axis=0)[g - k], axis)
    keep = sims >= floor
    if np.count_nonzero(keep) > keep.size // _TIE_SHARE:
        keep &= (sims > floor) | (np.cumsum(keep, axis=axis, dtype=np.int32) <= k)

    major, minor = np.divmod(np.flatnonzero(keep), keep.shape[1])
    line, idx = (major, minor) if axis else (minor, major)
    _, rank = np.unique(-sims[major, minor], return_inverse=True)  # ties share a rank
    # one distinct int64 key per candidate, in (line, -value, index) order; it is
    # below lines * candidates * width <= sims.size**2, so exact for blocks under
    # 2**31 entries
    order = np.argsort((line * (rank.max() + 1) + rank) * width + idx)
    counts = np.bincount(line, minlength=lines)
    top = idx[order[(np.cumsum(counts) - counts)[:, None] + np.arange(k)]]
    return top if axis else np.ascontiguousarray(top.T)


_MERGE_CHUNKS = 16  # chunks per merge of the column top-k; bounds the results held


def _cosine_top_k(a: np.ndarray, a_norms: np.ndarray, b: np.ndarray, b_norms: np.ndarray,
                  k_rows: int, k_cols: int, threads: int = 1):
    """Exact cosine top-k of rows ``a`` against float64 rows ``b``, given the
    ``row_norms`` of both, one 256-row chunk of ``a`` at a time; a chunk is
    converted to float64 only for its own product. Returns the row top-``k_rows``
    as (n, k_rows) indices and cosines and the column top-``k_cols`` as (k_cols, m)
    ones (empty for ``k_cols=0``); ties go to the lower index."""
    rows, row_cos = np.empty((len(a), k_rows), dtype=np.int64), np.empty((len(a), k_rows))
    cols, col_cos = np.empty((0, len(b)), dtype=np.int64), np.empty((0, len(b)))

    def one_chunk(bounds: tuple[int, int]):
        lo, hi = bounds
        sims = cosine_block(np.asarray(a[lo:hi], dtype=np.float64), a_norms[lo:hi], b, b_norms)
        rows[lo:hi] = _top_k(sims, k_rows)  # chunks write disjoint rows
        row_cos[lo:hi] = np.take_along_axis(sims, rows[lo:hi], axis=1)
        if k_cols:
            c = _top_k(sims, min(k_cols, hi - lo), axis=0)
            return c + lo, np.take_along_axis(sims, c, axis=0)

    chunks = chunk_ranges(len(a))
    for start in range(0, len(chunks), _MERGE_CHUNKS):
        found = map_chunks(one_chunk, chunks[start:start + _MERGE_CHUNKS], threads)
        if k_cols:
            # the kept candidates, then each chunk's in row order: among equal
            # cosines a lower stacked position is a lower row
            cands = np.vstack([cols, *(c for c, _ in found)])
            cand_cos = np.vstack([col_cos, *(cc for _, cc in found)])
            keep = _top_k(cand_cos, min(k_cols, len(cand_cos)), axis=0)
            cols = np.take_along_axis(cands, keep, axis=0)
            col_cos = np.take_along_axis(cand_cos, keep, axis=0)
    return rows, row_cos, cols, col_cos


def _checked_sides(src: EmbeddingMatrix, tgt: EmbeddingMatrix, k_nn: int):
    """The source rows with their ``row_norms``, and the target rows as float64
    with theirs, once ``k_nn >= 1``, a nonempty target and equal dims are checked;
    a zero row raises ZeroVectorError, a source row named before a target row."""
    if k_nn < 1:
        raise MiningError(f"k_nn must be >= 1, got {k_nn}")
    if tgt.rows == 0:
        raise MiningError("empty database")
    if src.dim != tgt.dim:
        raise MiningError(f"dimension mismatch: {src.dim} vs {tgt.dim}")
    b = np.asarray(tgt.data, dtype=np.float64)
    return src.data, row_norms(src.data), b, row_norms(b)


def knn(queries: EmbeddingMatrix, database: EmbeddingMatrix, k_nn: int,
        threads: int = 1) -> list[NeighborList]:
    """Exact top-``k_nn`` cosine neighbors per query, ties broken by lower index."""
    sides = _checked_sides(queries, database, k_nn)
    k = min(k_nn, database.rows)
    rows, cos, _, _ = _cosine_top_k(*sides, k, 0, threads)
    return [NeighborList(query_index=i, neighbors=tuple(zip(js, cs)))
            for i, (js, cs) in enumerate(zip(rows.tolist(), cos.tolist()))]


def _margins(cos, x_mean, y_mean, margin: Margin):
    """Margin scores of cosines given the two neighborhood means, elementwise."""
    if margin is Margin.ABSOLUTE:
        return cos
    denom = (x_mean + y_mean) / 2.0
    return cos - denom if margin is Margin.DISTANCE else cos / denom


def _means(row_cos: np.ndarray, col_cos: np.ndarray, margin: Margin):
    """Row and column neighborhood means; the ratio needs every pair's denominator > 0."""
    row_mean, col_mean = row_cos.mean(axis=1), col_cos.mean(axis=0)
    # rounding is monotone, so no pair's denominator is below the one of the two minima
    if margin is Margin.RATIO and (row_mean.min() + col_mean.min()) / 2.0 <= 0.0:
        raise MiningError("degenerate neighborhood: nonpositive margin denominator")
    return row_mean, col_mean


def _argmax(cands: np.ndarray, scores: np.ndarray, axis: int):
    """Best score along ``axis`` and its candidate, the lowest one on ties."""
    best = scores.max(axis=axis, keepdims=True)
    winner = np.where(scores == best, cands, np.iinfo(np.int64).max).min(axis=axis)
    return winner, best.squeeze(axis)


def mine_pairs(src: EmbeddingMatrix, tgt: EmbeddingMatrix, k_nn: int = 4,
               threshold: float = -math.inf,
               direction: Direction | str = Direction.FORWARD,
               margin: Margin | str = Margin.RATIO,
               threads: int = 1) -> list[MinedPair]:
    """Mine scored pairs above ``threshold``.

    Each source row is paired with the margin-argmax among its ``k_nn``
    cosine neighbors only (backward: the same from the target side;
    intersect: mutual argmaxes only), lowest index on ties. Unlike
    ``simsearch_error_rate``, a target outside those neighbors is never
    chosen, even if its margin is higher. ``threshold=-inf`` keeps every
    candidate. Output is sorted by descending score, then (src_id, tgt_id).
    """
    direction = Direction(direction)
    margin = Margin(margin)
    if math.isnan(threshold):
        raise MiningError("threshold must not be NaN")
    sides = _checked_sides(src, tgt, k_nn)
    if src.rows == 0:
        raise MiningError("empty source")

    k = min(k_nn, src.rows, tgt.rows)
    rows, row_cos, cols, col_cos = _cosine_top_k(*sides, k, k, threads)
    row_mean, col_mean = _means(row_cos, col_cos, margin)
    fwd, fwd_best = _argmax(rows, _margins(
        row_cos, row_mean[:, None], col_mean[rows], margin), axis=1)
    bwd, bwd_best = _argmax(cols, _margins(
        col_cos, row_mean[cols], col_mean[None, :], margin), axis=0)

    i, j, s = np.arange(src.rows), fwd, fwd_best
    if direction is Direction.BACKWARD:
        i, j, s = bwd, np.arange(tgt.rows), bwd_best
    elif direction is Direction.INTERSECT:
        mutual = bwd[fwd] == i
        i, j, s = i[mutual], j[mutual], s[mutual]
    pairs = [
        MinedPair(src_id=src.row_id(a), tgt_id=tgt.row_id(b), score=c)
        for a, b, c in zip(i.tolist(), j.tolist(), s.tolist()) if c >= threshold
    ]
    pairs.sort(key=lambda p: (-p.score, p.src_id, p.tgt_id))
    return pairs


def _overlap_ratio(a: Segment, b: Segment) -> float:
    inter = a.overlap_s(b)
    return inter / min(a.duration_s, b.duration_s)


class _KeptIndex:
    """Kept segments of one audio_id, sorted by start time.

    ``near(seg)`` returns every kept segment whose overlap with ``seg`` can
    be positive, and possibly a few more. A segment outside it overlaps
    ``seg`` by 0.0, so its ratio 0.0 passes every ``max_overlap >= 0``.

    Why the window [lo, seg.end_s) is a superset: ``overlap_s`` is positive
    only if fl(min(ends) - max(starts)) > 0, and rounding is monotone, so
    only if p.start_s < seg.end_s and p.end_s > seg.start_s for the kept
    segment p. The exact p.end_s - p.start_s is at most its rounded value
    ``p.duration_s`` times 1 + 2**-52, so below 2 * longest, and thus
    p.start_s > seg.start_s - 2 * longest. Doubling is exact (or +inf), and
    the rounded subtraction is one of the two floats around the exact one,
    so the float below it, ``lo``, is at most seg.start_s - 2 * longest.
    """

    __slots__ = ("starts", "segments", "longest")

    def __init__(self):
        self.starts: list[float] = []
        self.segments: list[Segment] = []
        self.longest = 0.0

    def near(self, seg: Segment) -> list[Segment]:
        lo = math.nextafter(seg.start_s - 2.0 * self.longest, -math.inf)
        return self.segments[bisect_left(self.starts, lo):
                             bisect_left(self.starts, seg.end_s)]

    def add(self, seg: Segment) -> None:
        at = bisect_right(self.starts, seg.start_s)
        self.starts.insert(at, seg.start_s)
        self.segments.insert(at, seg)
        self.longest = max(self.longest, seg.duration_s)


def filter_overlap(pairs: Sequence[MinedPair], max_overlap: float,
                   side: str = "src") -> list[MinedPair]:
    """Greedy selection in descending score order under an overlap constraint.

    A pair is kept iff each of its segments on the constrained side(s)
    overlaps every already-kept segment of the same audio_id by at most
    ``max_overlap``, measured as intersection / min(segment durations).
    Pairs are visited by (-score, src_id, tgt_id); a pair's own segments
    are not checked against each other. With ``side="both"``, src and tgt
    segments share one index per audio_id.

    The kept segments of each audio_id are indexed by start time, so a
    segment is compared only with the kept ones that start between twice
    the longest kept duration before it and its end. Each segment costs two
    bisections, one list insert if kept, and one ratio per kept segment in
    that window, instead of one ratio per kept segment of its audio_id.
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
    by_audio: defaultdict[str, _KeptIndex] = defaultdict(_KeptIndex)
    for pair in ordered:
        segs = segments_of(pair)
        if all(_overlap_ratio(seg, prev) <= max_overlap
               for seg in segs for prev in by_audio[seg.audio_id].near(seg)):
            kept.append(pair)
            for seg in segs:
                by_audio[seg.audio_id].add(seg)
    return kept


_SHORTLIST = 32  # least row width of simsearch_error_rate's first pass


def simsearch_error_rate(audio_emb: EmbeddingMatrix, text_emb: EmbeddingMatrix,
                         gold: Mapping[str, str], k_nn: int = 4, threads: int = 1) -> float:
    """Fraction of audio rows whose margin-argmax text differs from gold.

    The ratio margin uses ``k_nn``-neighbor means, but unlike
    ``mine_pairs`` the argmax runs over all texts, not only the audio
    row's ``k_nn`` cosine neighbors (first index on ties). Both matrices
    must carry ids; every audio id needs a gold text id present in
    ``text_emb``.

    One cosine pass keeps each row's top L = min(max(32, k), n_text)
    cosines, whose first k give the row means. A text outside that
    shortlist has a cosine at most the L-th one, ``kth``; every
    denominator is positive and rounding is monotone, so its margin is at
    most ``kth / ((row_mean + c) / 2)``, with c the least column mean for
    ``kth >= 0`` and the greatest otherwise. A row whose best shortlist
    margin is strictly above that bound takes its argmax from the
    shortlist. The other rows, ties at the bound included, get a second
    cosine product over all texts.
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
    a, a_norms, b, b_norms = _checked_sides(audio_emb, text_emb, k_nn)

    k = min(k_nn, audio_emb.rows, text_emb.rows)
    width = min(max(_SHORTLIST, k), text_emb.rows)
    rows, row_cos, _, col_cos = _cosine_top_k(a, a_norms, b, b_norms, width, k, threads)
    row_mean, col_mean = _means(row_cos[:, :k], col_cos, Margin.RATIO)
    predictions, best = _argmax(rows, _margins(
        row_cos, row_mean[:, None], col_mean[rows], Margin.RATIO), axis=1)
    if width < text_emb.rows:
        kth = row_cos[:, -1]
        c = np.where(kth >= 0.0, col_mean.min(), col_mean.max())
        undecided = np.flatnonzero(~(best > _margins(kth, row_mean, c, Margin.RATIO)))

        def recheck(bounds: tuple[int, int]) -> np.ndarray:
            at = undecided[bounds[0]:bounds[1]]
            sims = cosine_block(a[at].astype(np.float64), a_norms[at], b, b_norms)
            return _margins(sims, row_mean[at, None], col_mean, Margin.RATIO).argmax(axis=1)

        if len(undecided):
            predictions[undecided] = np.concatenate(
                map_chunks(recheck, chunk_ranges(len(undecided)), threads))
    errors = sum(
        1 for i, aid in enumerate(audio_emb.ids)
        if text_emb.ids[int(predictions[i])] != gold[aid])
    return errors / audio_emb.rows


PAIRS_HEADER = ("score", "src_id", "tgt_id", "src_audio", "src_start",
                "src_end", "tgt_audio", "tgt_start", "tgt_end")


def write_pairs(pairs: Sequence[MinedPair], path: str | Path) -> None:
    rows = []
    for lineno, p in enumerate(pairs, start=2):
        row = [repr(float(p.score)), p.src_id, p.tgt_id]
        for seg, column in ((p.src_segment, "src_audio"), (p.tgt_segment, "tgt_audio")):
            if seg is None:
                row += ["", "", ""]
            elif seg.audio_id:
                row += [seg.audio_id, repr(seg.start_s), repr(seg.end_s)]
            else:  # an empty audio id would read back as no segment
                raise ManifestError(f"line {lineno}, column {column!r}: empty segment audio id")
        rows.append(row)
    write_file(path, join_rows(PAIRS_HEADER, rows, ManifestError))


def read_pairs(path: str | Path) -> list[MinedPair]:
    pairs = []
    with numbered(path, MiningError) as lines:
        if tuple(next(lines, "").split("\t")) != PAIRS_HEADER:
            raise MiningError("missing or invalid pairs header")
        for raw in lines:
            cols = raw.split("\t")
            if len(cols) != len(PAIRS_HEADER):
                raise MiningError(f"expected {len(PAIRS_HEADER)} columns")
            score = float(cols[0])
            src_seg = Segment(cols[3], float(cols[4]), float(cols[5])) if cols[3] else None
            tgt_seg = Segment(cols[6], float(cols[7]), float(cols[8])) if cols[6] else None
            pairs.append(MinedPair(src_id=cols[1], tgt_id=cols[2], score=score,
                                   src_segment=src_seg, tgt_segment=tgt_seg))
    return pairs
