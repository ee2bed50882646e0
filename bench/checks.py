"""Brute-force oracles for the benchmark's output checks.

Each oracle is written from the definition, in float64, and works in row
blocks so that its memory stays below the program's: the checks run in the
same process, and ``peak_rss_mb`` must show the program's peak, not theirs.
"""

from __future__ import annotations

import numpy as np

BLOCK = 128


def nearest_centroids(frames: np.ndarray, centroids: np.ndarray, block: int = 16) -> np.ndarray:
    """Index of the nearest centroid by the direct float64 sum of (x - c)^2,
    lowest index on ties."""
    f64 = np.asarray(frames, dtype=np.float64)
    c64 = np.asarray(centroids, dtype=np.float64)
    labels = np.empty(len(f64), dtype=np.int64)
    for lo in range(0, len(f64), block):
        diff = f64[lo:lo + block, None, :] - c64[None, :, :]
        labels[lo:lo + block] = (diff * diff).sum(axis=2).argmin(axis=1)
    return labels


def collapse_runs(labels) -> list[int]:
    return [int(u) for i, u in enumerate(labels) if i == 0 or labels[i - 1] != u]


def non_increasing(history, rel: float = 1e-9) -> bool:
    return all(a >= b - rel * max(1.0, abs(a)) for a, b in zip(history, history[1:]))


def _cos_block(a: np.ndarray, a_norm: np.ndarray, b: np.ndarray, b_norm: np.ndarray) -> np.ndarray:
    return np.clip((a @ b.T) / np.outer(a_norm, b_norm), -1.0, 1.0)


class MarginOracle:
    """Ratio-margin mining and similarity search by brute force over all pairs.

    Neighbour lists rank by (-cosine, index); margin argmaxes break ties
    toward the lower index, as the library documents.
    """

    def __init__(self, src: np.ndarray, tgt: np.ndarray, k_nn: int):
        self.a = np.asarray(src, dtype=np.float64)
        self.b = np.asarray(tgt, dtype=np.float64)
        self.a_norm = np.linalg.norm(self.a, axis=1)
        self.b_norm = np.linalg.norm(self.b, axis=1)
        n, m = len(self.a), len(self.b)
        k = min(k_nn, n, m)
        self.row_cand = np.empty((n, k), dtype=np.int64)
        self.row_cos = np.empty((n, k))
        col_cos = np.full((0, m), -np.inf)
        col_cand = np.zeros((0, m), dtype=np.int64)
        for lo in range(0, n, BLOCK):
            cos = _cos_block(self.a[lo:lo + BLOCK], self.a_norm[lo:lo + BLOCK], self.b, self.b_norm)
            order = np.argsort(-cos, axis=1, kind="stable")[:, :k]
            self.row_cand[lo:lo + BLOCK] = order
            self.row_cos[lo:lo + BLOCK] = np.take_along_axis(cos, order, axis=1)
            # earlier rows come first, so a stable sort keeps the lower row on ties
            merged = np.vstack([col_cos, cos])
            rows = np.vstack([col_cand, np.broadcast_to(
                np.arange(lo, lo + len(cos))[:, None], cos.shape)])
            keep = np.argsort(-merged, axis=0, kind="stable")[:k]
            col_cos = np.take_along_axis(merged, keep, axis=0)
            col_cand = np.take_along_axis(rows, keep, axis=0)
        self.col_cand, self.col_cos = col_cand.T, col_cos.T
        self.row_mean = self.row_cos.mean(axis=1)
        self.col_mean = self.col_cos.mean(axis=1)

    @staticmethod
    def _best(cands: np.ndarray, scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        best = scores.max(axis=1)
        winner = np.where(scores == best[:, None], cands, np.iinfo(np.int64).max).min(axis=1)
        return winner, best

    def intersect_pairs(self) -> dict[tuple[int, int], float]:
        """{(src row, tgt row): margin score} for the mutual margin argmaxes."""
        fwd_scores = self.row_cos / ((self.row_mean[:, None] + self.col_mean[self.row_cand]) / 2.0)
        fwd, fwd_best = self._best(self.row_cand, fwd_scores)
        bwd_scores = self.col_cos / ((self.row_mean[self.col_cand] + self.col_mean[:, None]) / 2.0)
        bwd, _ = self._best(self.col_cand, bwd_scores)
        return {(i, int(j)): float(fwd_best[i]) for i, j in enumerate(fwd) if bwd[j] == i}

    def simsearch_predictions(self) -> np.ndarray:
        """Margin argmax over all targets per source row (first index on ties)."""
        pred = np.empty(len(self.a), dtype=np.int64)
        for lo in range(0, len(self.a), BLOCK):
            cos = _cos_block(self.a[lo:lo + BLOCK], self.a_norm[lo:lo + BLOCK], self.b, self.b_norm)
            denom = (self.row_mean[lo:lo + BLOCK, None] + self.col_mean[None, :]) / 2.0
            pred[lo:lo + BLOCK] = (cos / denom).argmax(axis=1)
        return pred


def overlap_audit(candidates, kept, max_overlap: float, eps: float = 1e-12) -> list[str]:
    """O(n^2) audit of greedy overlap filtering on the source side.

    Candidates are taken in descending score, then (src_id, tgt_id). Kept
    pairs of one audio overlap each other by at most ``max_overlap``; every
    dropped pair overlaps some pair kept before it by more.
    """
    def ratio(x, y):
        return x.overlap_s(y) / min(x.duration_s, y.duration_s)

    kept_keys = {(p.src_id, p.tgt_id) for p in kept}
    problems = []
    if len(kept_keys) != len(kept):
        problems.append("kept pairs repeat")
    before: dict[str, list] = {}
    for p in sorted(candidates, key=lambda p: (-p.score, p.src_id, p.tgt_id)):
        seg = p.src_segment
        worst = max((ratio(seg, prev) for prev in before.get(seg.audio_id, ())), default=0.0)
        if (p.src_id, p.tgt_id) in kept_keys:
            if worst > max_overlap + eps:
                problems.append(f"kept pair {p.src_id}/{p.tgt_id} overlaps an earlier kept pair")
            before.setdefault(seg.audio_id, []).append(seg)
        elif worst <= max_overlap - eps:
            problems.append(f"dropped pair {p.src_id}/{p.tgt_id} overlaps no kept pair")
    return problems
