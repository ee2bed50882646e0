from __future__ import annotations

import functools
import math
import tracemalloc

import numpy as np
import pytest

from conftest import make_matrix, random_matrix
from unitforge import mine
from unitforge.corpus import ManifestError, Segment
from unitforge.embed import EmbeddingMatrix, ZeroVectorError, cosine_block
from unitforge.mine import (
    Direction, Margin, MinedPair, MiningError,
    filter_overlap, knn, mine_pairs,
    read_pairs, simsearch_error_rate, write_pairs,
)


def oracle_cosine(a: np.ndarray, b: np.ndarray) -> float:
    a = a.astype(np.float64)
    b = b.astype(np.float64)
    return min(1.0, max(-1.0, float(
        np.dot(a, b) / (math.sqrt(np.dot(a, a)) * math.sqrt(np.dot(b, b))))))


def oracle_table(queries: np.ndarray, database: np.ndarray) -> np.ndarray:
    """All-pairs cosines, one pair at a time."""
    return np.array([[oracle_cosine(q, d) for d in database] for q in queries])


def oracle_neighbors(sims: np.ndarray, k: int):
    """Each row's k best columns of a cosine table by (-cosine, index)."""
    return [[(j, row[j]) for j in sorted(range(len(row)), key=lambda j: (-row[j], j))[:k]]
            for row in sims.tolist()]


def oracle_margin(sims: np.ndarray, i: int, j: int, k: int,
                  margin: Margin = Margin.RATIO) -> float:
    """Margin (ratio by default) from the full cosine table, computed with plain loops."""
    row = sorted(sims[i, :], reverse=True)[:k]
    col = sorted(sims[:, j], reverse=True)[:k]
    denom = (sum(row) / k + sum(col) / k) / 2.0
    if margin is Margin.ABSOLUTE:
        return sims[i, j]
    if margin is Margin.DISTANCE:
        return sims[i, j] - denom
    return sims[i, j] / denom


def tie_fixture():
    """Small non-negative integer rows with exact duplicates on both sides.

    Every dot product and squared norm is an exact integer, so equal
    cosines are bit-equal in any summation order, and ties straddle the
    k-th neighbor of rows and of columns. 300 source rows span two
    256-row chunks, so column candidates are merged across chunks.
    """
    gen = np.random.default_rng(3)
    src = gen.integers(0, 3, size=(300, 4))
    tgt = gen.integers(0, 3, size=(40, 4))
    src[(src == 0).all(axis=1)] = 1
    tgt[(tgt == 0).all(axis=1)] = 1
    src[150:200] = src[:50]
    tgt[20:30] = tgt[:10]
    return make_matrix(src), make_matrix(tgt)


GROUP_ROWS = mine._MERGE_CHUNKS * 256  # source rows per merge of the column top-k


def two_group_tie_fixture():
    """Like ``tie_fixture``, but 4,400 source rows drawn from 26 distinct ones:
    their column candidates are merged in two groups, and each column's best
    cosine is held by many rows on both sides of the group boundary; the 100
    rows after it also repeat the 100 before it."""
    gen = np.random.default_rng(4)
    src = gen.integers(0, 3, size=(GROUP_ROWS + 304, 3))
    tgt = gen.integers(0, 3, size=(60, 3))
    src[(src == 0).all(axis=1)] = 1
    tgt[(tgt == 0).all(axis=1)] = 1
    src[GROUP_ROWS:GROUP_ROWS + 100] = src[GROUP_ROWS - 100:GROUP_ROWS]
    return make_matrix(src), make_matrix(tgt)


@functools.lru_cache(maxsize=None)
def oracle_case(name: str):
    """(src, tgt, k, loop cosine table, forward and backward oracle neighbors)."""
    if name == "ties":
        src, tgt = tie_fixture()
        k = 3
    elif name == "two_group_ties":
        src, tgt = two_group_tie_fixture()
        k = 6
    else:
        gen = np.random.default_rng(20240817)
        src, tgt = random_matrix(gen, 30, 5), random_matrix(gen, 24, 5)
        k = 4
    sims = oracle_table(src.data, tgt.data)
    return src, tgt, k, sims, oracle_neighbors(sims, k), oracle_neighbors(sims.T, k)


def oracle_mine(name: str, direction: Direction, margin: Margin) -> dict:
    """{(src row, tgt row): score} by the definition: each side's margin argmax
    among its k oracle neighbors, lowest index on ties."""
    _, _, k, sims, fwd_nn, bwd_nn = oracle_case(name)

    def best(cands, score):
        top = max(score(c) for c in cands)
        return min(c for c in cands if score(c) == top), top

    if direction is not Direction.FORWARD:
        bwd = [best([i for i, _ in nn], lambda i: oracle_margin(sims, i, j, k, margin))
               for j, nn in enumerate(bwd_nn)]
        if direction is Direction.BACKWARD:
            return {(i, j): s for j, (i, s) in enumerate(bwd)}
    fwd = [best([j for j, _ in nn], lambda j: oracle_margin(sims, i, j, k, margin))
           for i, nn in enumerate(fwd_nn)]
    return {(i, j): s for i, (j, s) in enumerate(fwd)
            if direction is Direction.FORWARD or bwd[j][0] == i}


def block_diagonal_fixture():
    """3 blocks of 2 items; diagonal cosine 1.0, in-block 0.8, cross-block 0."""
    vecs = np.zeros((6, 6), dtype=np.float32)
    for block in range(3):
        vecs[2 * block, 2 * block] = 1.0
        vecs[2 * block + 1, 2 * block] = 0.8
        vecs[2 * block + 1, 2 * block + 1] = 0.6
    return make_matrix(vecs), make_matrix(vecs.copy())


def oracle_top_k(block: np.ndarray, k: int, axis: int) -> np.ndarray:
    """The first k of a stable argsort by -value along ``axis``: ties keep index
    order, and -0.0 ties with 0.0."""
    order = np.argsort(-block, axis=axis, kind="stable")
    return order[:, :k] if axis else order[:k]


def top_k_blocks():
    """Blocks whose line widths are not multiples of the screen's group counts."""
    gen = np.random.default_rng(3)
    return [gen.normal(size=(37, 101)),
            gen.integers(-2, 3, size=(64, 300)).astype(np.float64),  # ties at every floor
            np.where(gen.random((40, 70)) < 0.5, 0.0, -0.0),  # signed zeros tie
            np.full((33, 45), 0.25),  # all equal: every line ties at its floor
            gen.integers(0, 2, size=(1, 77)).astype(np.float64),  # a single row
            gen.integers(0, 2, size=(59, 1)).astype(np.float64)]  # a single column


class TestTopK:
    """``_top_k`` picks what a stable argsort picks, on both axes of one block."""

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("block", range(len(top_k_blocks())))
    def test_matches_stable_argsort_for_every_k(self, block, axis):
        sims = top_k_blocks()[block]
        for k in range(1, sims.shape[axis] + 1):
            np.testing.assert_array_equal(mine._top_k(sims, k, axis),
                                          oracle_top_k(sims, k, axis))

    @pytest.mark.parametrize("axis", [0, 1])
    def test_indices_are_c_ordered(self, axis):
        # the neighbor means sum in memory order, so the layout is part of the result
        for sims in top_k_blocks():
            for k in {1, min(16, sims.shape[axis])}:
                assert mine._top_k(sims, k, axis).flags.c_contiguous

    def test_thinning_ties_keeps_the_values_above_the_floor(self):
        # one tied value fills each line, a few larger ones sit late in it
        sims = np.zeros((12, 500))
        sims[:, 450:] = np.arange(50) / 100.0
        for axis, block in ((1, sims), (0, np.ascontiguousarray(sims.T))):
            for k in (1, 4, 49, 50, 51, 80):
                np.testing.assert_array_equal(mine._top_k(block, k, axis),
                                              oracle_top_k(block, k, axis))


class TestKnn:
    def test_self_similarity_top1(self, rng):
        db = random_matrix(rng, 6, 4)
        queries = make_matrix(db.data[3][None, :])
        top = knn(queries, db, k_nn=1)[0].neighbors[0]
        assert top[0] == 3
        assert top[1] == pytest.approx(1.0)

    def test_single_row_database(self, rng):
        db = random_matrix(rng, 1, 3)
        results = knn(random_matrix(rng, 4, 3), db, k_nn=5)
        assert all(nl.neighbors[0][0] == 0 and len(nl.neighbors) == 1 for nl in results)

    def test_matches_oracle(self, rng):
        queries = random_matrix(rng, 5, 3)
        db = random_matrix(rng, 4, 3)
        src, tgt, k, _, fwd_nn, bwd_nn = oracle_case("ties")
        cases = [(queries, db, 2, oracle_neighbors(oracle_table(queries.data, db.data), 2)),
                 (src, tgt, k, fwd_nn), (tgt, src, k, bwd_nn)]
        for q, d, k_nn, expected in cases:
            for threads in (1, 8):
                got = knn(q, d, k_nn=k_nn, threads=threads)
                assert [[i for i, _ in nl.neighbors] for nl in got] == \
                    [[i for i, _ in exp] for exp in expected]
                for nl, exp in zip(got, expected):
                    for (_, mine_cos), (_, oracle_cos) in zip(nl.neighbors, exp):
                        assert mine_cos == pytest.approx(oracle_cos, abs=1e-6)

    def test_tie_fixture_straddles_the_kth_neighbor(self):
        _, _, k, sims, _, _ = oracle_case("ties")
        by_row = -np.sort(-sims, axis=1)
        by_col = -np.sort(-sims, axis=0)
        assert (by_row[:, k - 1] == by_row[:, k]).sum() > 10
        assert (by_col[k - 1] == by_col[k]).sum() > 10

    def test_two_group_fixture_matches_oracle(self):
        src, tgt, k, _, fwd_nn, bwd_nn = oracle_case("two_group_ties")
        for q, d, expected in ((src, tgt, fwd_nn), (tgt, src, bwd_nn)):
            for threads in (1, 8):
                got = knn(q, d, k_nn=k, threads=threads)
                assert [list(nl.neighbors) for nl in got] == expected

    def test_two_group_fixture_ties_across_the_group_boundary(self):
        # every column's k neighbors, all before the boundary, tie with at least
        # k rows after it, so a merge that let the later group first on ties
        # would replace them all
        _, _, k, sims, _, bwd_nn = oracle_case("two_group_ties")
        for j, nn in enumerate(bwd_nn):
            assert max(i for i, _ in nn) < GROUP_ROWS
            assert np.count_nonzero(sims[GROUP_ROWS:, j] == nn[-1][1]) >= k

    def test_errors(self, rng):
        q = random_matrix(rng, 2, 3)
        with pytest.raises(MiningError, match="empty"):
            knn(q, make_matrix(np.zeros((0, 3))), k_nn=1)
        with pytest.raises(MiningError, match="mismatch"):
            knn(q, random_matrix(rng, 3, 5), k_nn=1)

    def test_zero_rows_named_source_side_first(self, rng):
        src, tgt = random_matrix(rng, 600, 4, ids=True), random_matrix(rng, 50, 4, ids=True)
        src.data[300] = 0.0
        tgt.data[7] = 0.0
        gold = dict(zip(src.ids, tgt.ids * 12))
        for op in (lambda: knn(src, tgt, 3), lambda: mine_pairs(src, tgt, 3),
                   lambda: simsearch_error_rate(src, tgt, gold)):
            with pytest.raises(ZeroVectorError, match="^zero embedding row 300;"):
                op()
        src.data[300] = 1.0
        for op in (lambda: knn(src, tgt, 3), lambda: mine_pairs(src, tgt, 3),
                   lambda: simsearch_error_rate(src, tgt, gold)):
            with pytest.raises(ZeroVectorError, match="^zero embedding row 7;"):
                op()

    def test_thread_invariance(self, rng):
        queries = random_matrix(rng, 600, 4)
        db = random_matrix(rng, 50, 4)
        assert knn(queries, db, 3, threads=1) == knn(queries, db, 3, threads=8)


class TestMinePairs:
    def test_no_threshold_keeps_one_pair_per_source(self, rng):
        src = random_matrix(rng, 7, 5)
        tgt = random_matrix(rng, 9, 5)
        pairs = mine_pairs(src, tgt, k_nn=3)
        assert len(pairs) == 7
        assert sorted(p.src_id for p in pairs) == sorted(str(i) for i in range(7))

    def test_threshold_above_max_empty(self, rng):
        src = random_matrix(rng, 5, 4)
        tgt = random_matrix(rng, 5, 4)
        no_cut = mine_pairs(src, tgt, k_nn=2)
        top = max(p.score for p in no_cut)
        assert mine_pairs(src, tgt, k_nn=2, threshold=top + 1.0) == []

    def test_block_diagonal_fixture(self):
        src, tgt = block_diagonal_fixture()
        pairs = mine_pairs(src, tgt, k_nn=2, threshold=1.0)
        assert sorted((p.src_id, p.tgt_id) for p in pairs) == \
            [(str(i), str(i)) for i in range(6)]

        # every returned score agrees with the loop-computed ratio margin
        sims = np.array([[oracle_cosine(src.data[i], tgt.data[j])
                          for j in range(6)] for i in range(6)])
        by_src = {p.src_id: p for p in pairs}
        for i in range(6):
            expected = oracle_margin(sims, i, i, 2)
            assert by_src[str(i)].score == pytest.approx(expected, abs=1e-9)
            assert expected >= 1.0
            # and the diagonal really is each row's margin argmax
            row_scores = [oracle_margin(sims, i, j, 2) for j in range(6)]
            assert int(np.argmax(row_scores)) == i

    def test_margin_scores_match_knn_plus_margin_score(self, rng):
        # each source row's pair is the loop-oracle margin argmax among its knn
        # neighbors, lowest index on ties
        src = random_matrix(rng, 6, 4)
        tgt = random_matrix(rng, 8, 4)
        k = 3
        sims = np.array([[oracle_cosine(a, b) for b in tgt.data] for a in src.data])
        pairs = mine_pairs(src, tgt, k_nn=k)
        by_src = {int(p.src_id): p for p in pairs}
        for i, nl in enumerate(knn(src, tgt, k)):
            best = max(((j, oracle_margin(sims, i, j, k)) for j, _ in nl.neighbors),
                       key=lambda t: (t[1], -t[0]))
            assert by_src[i].tgt_id == str(best[0])
            assert by_src[i].score == pytest.approx(best[1], abs=1e-9)

    @pytest.mark.parametrize("name", ["random", "ties"])
    @pytest.mark.parametrize("direction", list(Direction))
    @pytest.mark.parametrize("margin", list(Margin))
    def test_matches_loop_oracle(self, name, direction, margin):
        src, tgt, k, _, _, _ = oracle_case(name)
        expected = oracle_mine(name, direction, margin)
        for threads in (1, 8):
            pairs = mine_pairs(src, tgt, k_nn=k, direction=direction, margin=margin,
                               threads=threads)
            got = {(int(p.src_id), int(p.tgt_id)): p.score for p in pairs}
            assert len(got) == len(pairs)
            assert got.keys() == expected.keys()
            for key, score in got.items():
                assert score == pytest.approx(expected[key], abs=1e-12)

    @pytest.mark.parametrize("margin", list(Margin))
    def test_two_merge_groups_backward_matches_loop_oracle(self, margin):
        src, tgt, k, _, _, _ = oracle_case("two_group_ties")
        expected = oracle_mine("two_group_ties", Direction.BACKWARD, margin)
        for threads in (1, 8):
            pairs = mine_pairs(src, tgt, k_nn=k, direction="backward", margin=margin,
                               threads=threads)
            got = {(int(p.src_id), int(p.tgt_id)): p.score for p in pairs}
            assert got.keys() == expected.keys()
            for key, score in got.items():
                assert score == pytest.approx(expected[key], abs=1e-12)

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_scores_equal_means_of_c_ordered_top_k(self, direction):
        # at k=16 a mean summed in another order differs in its last bits
        gen = np.random.default_rng(16)
        src = make_matrix(np.rint(gen.normal(size=(300, 16)) * 8))
        tgt = make_matrix(np.rint(gen.normal(size=(400, 16)) * 8))
        k, sims = 16, integer_cosines(src, tgt)
        row_top = np.argsort(-sims, axis=1, kind="stable")[:, :k]
        col_top = np.argsort(-sims, axis=0, kind="stable")[:k]
        row_cos = np.ascontiguousarray(np.take_along_axis(sims, row_top, axis=1))
        col_cos = np.ascontiguousarray(np.take_along_axis(sims, col_top, axis=0))
        row_mean, col_mean = np.mean(row_cos, axis=1), np.mean(col_cos, axis=0)
        ratio = sims / ((row_mean[:, None] + col_mean[None, :]) / 2.0)
        expected = {}
        if direction == "forward":
            for i, cands in enumerate(row_top.tolist()):
                best = max(ratio[i, cands])
                expected[(i, min(j for j in cands if ratio[i, j] == best))] = best
        else:
            for j, cands in enumerate(col_top.T.tolist()):
                best = max(ratio[cands, j])
                expected[(min(i for i in cands if ratio[i, j] == best), j)] = best
        for threads in (1, 8):
            pairs = mine_pairs(src, tgt, k_nn=k, direction=direction, threads=threads)
            assert {(int(p.src_id), int(p.tgt_id)): p.score for p in pairs} == expected

    def test_direction_backward(self, rng):
        src = random_matrix(rng, 4, 3)
        tgt = random_matrix(rng, 6, 3)
        pairs = mine_pairs(src, tgt, k_nn=2, direction=Direction.BACKWARD)
        assert len(pairs) == 6
        assert sorted(p.tgt_id for p in pairs) == sorted(str(j) for j in range(6))

    def test_direction_intersect_subset_of_both(self, rng):
        src = random_matrix(rng, 5, 3)
        tgt = random_matrix(rng, 5, 3)
        fwd = {(p.src_id, p.tgt_id) for p in mine_pairs(src, tgt, k_nn=2)}
        bwd = {(p.src_id, p.tgt_id)
               for p in mine_pairs(src, tgt, k_nn=2, direction="backward")}
        inter = {(p.src_id, p.tgt_id)
                 for p in mine_pairs(src, tgt, k_nn=2, direction="intersect")}
        assert inter <= fwd and inter <= bwd

    def test_monotone_in_threshold(self, rng):
        src = random_matrix(rng, 30, 6)
        tgt = random_matrix(rng, 30, 6)
        counts = [len(mine_pairs(src, tgt, k_nn=4, threshold=t))
                  for t in np.arange(1.00, 1.101, 0.02)]
        assert counts == sorted(counts, reverse=True)

    def test_sorted_by_score_then_ids(self, rng):
        src = random_matrix(rng, 12, 5)
        tgt = random_matrix(rng, 12, 5)
        pairs = mine_pairs(src, tgt, k_nn=3)
        keys = [(-p.score, p.src_id, p.tgt_id) for p in pairs]
        assert keys == sorted(keys)

    def test_ratio_rejects_any_nonpositive_denominator(self):
        # every candidate's denominator is positive, but (x2, t2)'s is not:
        # t2's best cosine is -0.0995 and x2's is only 0.05
        src = make_matrix([[1, 0, -0.1], [0, 1, -0.1], [0.05, 0, -1]])
        tgt = make_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(MiningError, match="degenerate"):
            mine_pairs(src, tgt, k_nn=1)
        assert len(mine_pairs(src, tgt, k_nn=1, margin="distance")) == 3

    def test_nan_threshold_rejected(self, rng):
        with pytest.raises(MiningError):
            mine_pairs(random_matrix(rng, 2, 2), random_matrix(rng, 2, 2),
                       threshold=float("nan"))

    def test_uses_ids_when_present(self, rng):
        src = random_matrix(rng, 3, 4, ids=True)
        tgt = random_matrix(rng, 3, 4, ids=True)
        pairs = mine_pairs(src, tgt, k_nn=1)
        assert all(p.src_id.startswith("r") and p.tgt_id.startswith("r") for p in pairs)

    def test_worker_count_does_not_change_results(self, rng):
        src = random_matrix(rng, 300, 5)
        tgt = random_matrix(rng, 80, 5)
        assert mine_pairs(src, tgt, k_nn=3, threads=1) == \
            mine_pairs(src, tgt, k_nn=3, threads=6)


def seg(audio, start, end):
    return Segment(audio, float(start), float(end))


def pair(src_id, score, segment):
    return MinedPair(src_id=src_id, tgt_id=f"t-{src_id}", score=score, src_segment=segment)


class TestFilterOverlap:
    def test_different_audio_all_kept(self):
        pairs = [pair("a", 0.9, seg("A", 0, 10)), pair("b", 0.8, seg("B", 0, 10))]
        assert len(filter_overlap(pairs, 0.2)) == 2

    def test_exact_boundary_kept(self):
        pairs = [pair("a", 0.9, seg("A", 0, 10)), pair("b", 0.8, seg("A", 8, 18))]
        assert len(filter_overlap(pairs, 0.2)) == 2  # 2/10 == 20%

    def test_above_boundary_rejected_greedy(self):
        pairs = [pair("a", 0.9, seg("A", 0, 10)), pair("b", 0.8, seg("A", 7, 17))]
        kept = filter_overlap(pairs, 0.2)  # 3/10 == 30%
        assert [p.src_id for p in kept] == ["a"]

    def test_greedy_prefers_higher_score(self):
        low = pair("low", 0.5, seg("A", 0, 10))
        high = pair("high", 0.9, seg("A", 5, 15))
        assert [p.src_id for p in filter_overlap([low, high], 0.2)] == ["high"]

    def test_missing_segment_rejected(self):
        bare = MinedPair(src_id="x", tgt_id="y", score=1.0)
        with pytest.raises(MiningError, match="segment"):
            filter_overlap([bare], 0.2, side="src")

    def test_kept_order_is_descending_score(self, rng):
        pairs = [pair(f"p{i}", float(rng.random()), seg(f"A{i % 3}", i * 2, i * 2 + 5))
                 for i in range(20)]
        kept = filter_overlap(pairs, 0.3)
        scores = [p.score for p in kept]
        assert scores == sorted(scores, reverse=True)

    def test_no_violations_audit(self, rng):
        for trial in range(20):
            pairs = []
            for i in range(30):
                start = float(rng.uniform(0, 100))
                pairs.append(pair(f"p{trial}-{i}", float(rng.random()),
                                  seg(f"A{int(rng.integers(0, 3))}",
                                      start, start + float(rng.uniform(1, 20)))))
            kept = filter_overlap(pairs, 0.2)
            for a in kept:
                for b in kept:
                    if a is b or a.src_segment.audio_id != b.src_segment.audio_id:
                        continue
                    ratio = a.src_segment.overlap_s(b.src_segment) / min(
                        a.src_segment.duration_s, b.src_segment.duration_s)
                    assert ratio <= 0.2 + 1e-12


def oracle_filter_overlap(pairs, max_overlap, side="src"):
    """The greedy filter as a plain scan: each candidate segment against
    every kept segment of its audio_id."""
    sides = ("src", "tgt") if side == "both" else (side,)
    kept, by_audio = [], {}
    for p in sorted(pairs, key=lambda p: (-p.score, p.src_id, p.tgt_id)):
        segs = [p.src_segment if s == "src" else p.tgt_segment for s in sides]
        if all(a.overlap_s(b) / min(a.duration_s, b.duration_s) <= max_overlap
               for a in segs for b in by_audio.get(a.audio_id, ())):
            kept.append(p)
            for a in segs:
                by_audio.setdefault(a.audio_id, []).append(a)
    return kept


def overlap_layout(gen: np.random.Generator, kind: str, n: int = 60) -> list[MinedPair]:
    """Seeded pairs whose src and tgt segments draw from the same audio ids."""
    def nudge(x: float) -> float:
        return math.nextafter(x, [-math.inf, x, math.inf][int(gen.integers(0, 3))])

    def one_segment(i: int) -> Segment:
        audio = f"A{int(gen.integers(0, 3))}"
        if kind == "grid":  # touching ends, and starts like 0.1 + 0.2
            start = sum([0.1] * int(gen.integers(0, 40)))
            return Segment(audio, start, start + 0.1 * int(gen.integers(1, 6)))
        if kind == "long":  # one long segment among short ones
            if i == n // 3:
                return Segment(audio, 5.0, 205.0)
            start = float(gen.uniform(0, 220))
            return Segment(audio, start, start + float(gen.uniform(0.2, 3)))
        if kind == "offset":  # end - start rounds at this magnitude
            start = 1e5 + float(gen.uniform(0, 30))
            return Segment(audio, start, start + float(gen.uniform(0.1, 4)))
        if kind == "ulp":  # bounds on a grid, or one ulp either side of it
            a, b = sorted(gen.choice(np.arange(1.0, 12.0, 0.75), 2, replace=False))
            return Segment(audio, nudge(float(a)), nudge(float(b)))
        raise AssertionError(kind)

    # scores on a coarse grid, so ties fall back to (src_id, tgt_id)
    return [MinedPair(src_id=f"s{int(gen.integers(0, n))}-{i}", tgt_id=f"t{i}",
                      score=round(float(gen.random()), 1),
                      src_segment=one_segment(i), tgt_segment=one_segment(i))
            for i in range(n)]


class TestIndexedOverlapFilter:
    """The indexed filter keeps exactly what the plain greedy scan keeps."""

    @pytest.mark.parametrize("kind", ["grid", "long", "offset", "ulp"])
    @pytest.mark.parametrize("side", ["src", "tgt", "both"])
    @pytest.mark.parametrize("max_overlap", [0.0, 0.2, 1.0])
    def test_equals_greedy_scan(self, kind, side, max_overlap):
        gen = np.random.default_rng(7)
        for _ in range(15):
            pairs = overlap_layout(gen, kind)
            assert filter_overlap(pairs, max_overlap, side) == \
                oracle_filter_overlap(pairs, max_overlap, side)

    def test_one_ulp_overlap_and_touching(self):
        pairs = [pair("k", 0.9, seg("A", 1, 2)), pair("t", 0.5, seg("A", 2, 3)),
                 pair("k2", 0.9, seg("B", 1, 2)),
                 pair("u", 0.5, Segment("B", math.nextafter(2.0, 0.0), 3.0))]
        assert [p.src_id for p in filter_overlap(pairs, 0.0)] == ["k", "k2", "t"]
        assert [p.src_id for p in filter_overlap(pairs, 1e-12)] == ["k", "k2", "t", "u"]

    def test_long_kept_segment_reaches_late_candidates(self):
        long = pair("long", 0.9, seg("A", 0, 100))
        late = [pair(f"c{i}", 0.5, seg("A", start, start + 1))
                for i, start in enumerate([97, 99.5, 99.9, 101])]
        # overlaps 1, 0.5, 0.1 and 0 of the shorter duration
        assert [p.src_id for p in filter_overlap([long] + late, 0.2)] == \
            ["long", "c2", "c3"]

    def test_kept_tgt_rejects_later_src_on_same_audio(self):
        first = MinedPair("a", "x", 0.9, src_segment=seg("A", 0, 10),
                          tgt_segment=seg("B", 0, 10))
        second = MinedPair("b", "y", 0.8, src_segment=seg("B", 5, 15),
                           tgt_segment=seg("C", 0, 10))
        assert filter_overlap([first, second], 0.2, side="both") == [first]
        assert filter_overlap([first, second], 0.2, side="src") == [first, second]
        # a pair's own src and tgt segments are not checked against each other
        own = MinedPair("c", "z", 0.7, src_segment=seg("D", 0, 10),
                        tgt_segment=seg("D", 0, 10))
        assert filter_overlap([own], 0.0, side="both") == [own]

    def test_ratio_evaluations_linear_in_pairs(self, monkeypatch):
        # 5k fixed 1-s windows on one audio: the plain scan evaluates about
        # n * kept / 2 ratios; the index a few per candidate
        n = 5000
        gen = np.random.default_rng(11)
        pairs = [pair(f"p{i}", float(gen.random()), Segment("A", start, start + 1.0))
                 for i, start in enumerate(gen.uniform(0, n / 2, n).tolist())]
        head = pairs[:800]
        assert filter_overlap(head, 0.2) == oracle_filter_overlap(head, 0.2)
        budget = 5 * n
        calls = 0
        ratio = mine._overlap_ratio

        def counted(a, b):
            nonlocal calls
            calls += 1
            assert calls <= budget, "ratio evaluations exceed 5 per pair"
            return ratio(a, b)

        monkeypatch.setattr(mine, "_overlap_ratio", counted)
        kept = filter_overlap(pairs, 0.2)
        assert 0 < calls <= budget
        assert 1500 < len(kept) < n

    def test_max_overlap_one_keeps_every_pair(self):
        # 600 10-s windows at a 0.01-s hop on one audio: every pair overlaps
        gen = np.random.default_rng(13)
        dense = [MinedPair(f"s{i}", f"t{i}", round(float(gen.random()), 2),
                           src_segment=Segment("A", 0.01 * i, 0.01 * i + 10.0),
                           tgt_segment=Segment("A", 1e5 + 0.01 * i, 1e5 + 0.01 * i + 0.3))
                 for i in range(600)]
        tiny = [MinedPair(f"e{i}", f"f{i}", 0.5, src_segment=Segment("B", start, end),
                          tgt_segment=Segment("B", start, end))
                for i, (start, end) in enumerate([
                    (0.0, 5e-324), (0.0, 1e-300), (1e300, math.nextafter(1e300, math.inf)),
                    (1.0, math.nextafter(1.0, 2.0)), (0.1 + 0.2, 0.3 + 0.3)])]
        layouts = [dense, tiny] + [overlap_layout(gen, kind)
                                   for kind in ("grid", "long", "offset", "ulp")]
        sides = ("src", "tgt", "both")
        for pairs in layouts:
            visit_order = sorted(pairs, key=lambda p: (-p.score, p.src_id, p.tgt_id))
            for side in sides:
                assert filter_overlap(pairs, 1.0, side) == visit_order
                assert oracle_filter_overlap(pairs, 1.0, side) == visit_order
        # just below 1.0 identical segments (overlap 1.0) are dropped
        twin = dense + [MinedPair("twin", "t0", 0.0, src_segment=dense[0].src_segment,
                                  tgt_segment=dense[0].tgt_segment)]
        for bound in (0.99, math.nextafter(1.0, 0.0)):
            kept = filter_overlap(twin, bound, "both")
            assert kept == oracle_filter_overlap(twin, bound, "both")
            assert len(kept) < len(twin)

        # the missing-segment check names the first such pair in visit order
        src_only = [MinedPair("x", "y", 0.2, src_segment=seg("A", 0, 1)),
                    MinedPair("w", "z", 0.9, src_segment=seg("A", 0, 1))]
        assert filter_overlap(src_only, 1.0, side="src") == src_only[::-1]
        with pytest.raises(MiningError, match=r"pair \(w, z\) lacks the tgt segment"):
            filter_overlap(src_only, 1.0, side="both")


def margin_choice_fixture():
    """x0's one cosine neighbor is t0 (cos 0.80), but t0 is also x1's exact
    match, so t0's neighborhood mean is 1.0. t1 is a little farther from x0
    (cos 0.78) and has no closer source, so x0's ratio margin is highest for
    t1, which lies outside x0's k=1 cosine neighbors."""
    src = make_matrix([[1.0, 0.0], [0.8, 0.6]], ids=("x0", "x1"))
    tgt = make_matrix([[0.8, 0.6], [0.78, -math.sqrt(1 - 0.78 ** 2)]], ids=("t0", "t1"))
    return src, tgt


class TestMarginArgmaxScope:
    def test_mining_restricts_argmax_to_knn(self):
        src, tgt = margin_choice_fixture()
        assert knn(src, tgt, 1)[0].neighbors[0][0] == 0
        pairs = mine_pairs(src, tgt, k_nn=1)
        assert sorted((p.src_id, p.tgt_id) for p in pairs) == [("x0", "t0"), ("x1", "t0")]

    def test_simsearch_takes_argmax_over_all_targets(self):
        src, tgt = margin_choice_fixture()
        sims = np.array([[oracle_cosine(a, b) for b in tgt.data] for a in src.data])
        assert oracle_margin(sims, 0, 1, 1) > oracle_margin(sims, 0, 0, 1)
        assert simsearch_error_rate(src, tgt, {"x0": "t1", "x1": "t0"}, k_nn=1) == 0.0
        assert simsearch_error_rate(src, tgt, {"x0": "t0", "x1": "t0"}, k_nn=1) == 0.5


class TestStreamingMemory:
    """Mining never holds an n x m cosine table: the traced peak stays below one."""

    @pytest.mark.parametrize("op", ["mine_pairs", "simsearch_error_rate"])
    def test_peak_below_one_table(self, op):
        gen = np.random.default_rng(5)
        n, m = 2000, 3000
        src = make_matrix(gen.normal(size=(n, 8)), ids=tuple(f"s{i}" for i in range(n)))
        tgt = make_matrix(gen.normal(size=(m, 8)), ids=tuple(f"t{j}" for j in range(m)))
        gold = {f"s{i}": f"t{i}" for i in range(n)}
        tracemalloc.start()
        try:
            if op == "mine_pairs":
                mine_pairs(src, tgt, k_nn=4, direction="intersect")
            else:
                simsearch_error_rate(src, tgt, gold, k_nn=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * m * 8, f"{op} peaked at {peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("op", ["mine_pairs", "simsearch_error_rate"])
    def test_all_equal_rows_peak_below_one_table(self, op):
        # every cosine is 1.0, so ties at the screen's floor fill whole lines
        n, m = 2000, 3000
        src = make_matrix(np.ones((n, 8)), ids=tuple(f"s{i}" for i in range(n)))
        tgt = make_matrix(np.ones((m, 8)), ids=tuple(f"t{j}" for j in range(m)))
        tracemalloc.start()
        try:
            if op == "mine_pairs":
                pairs = mine_pairs(src, tgt, k_nn=4, direction="intersect")
            else:
                rate = simsearch_error_rate(src, tgt, {f"s{i}": "t0" for i in range(n)}, k_nn=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * m * 8, f"{op} peaked at {peak / 2**20:.1f} MiB"
        if op == "mine_pairs":  # t0 is every row's first neighbor, s0 every column's
            assert [(p.src_id, p.tgt_id, p.score) for p in pairs] == [("s0", "t0", 1.0)]
        else:
            assert rate == 0.0


class TestSimsearch:
    def _fixture(self, swap=False):
        data = (np.eye(10, 12) + 0.01).astype(np.float32)
        audio = make_matrix(data, ids=tuple(f"a{i}" for i in range(10)))
        text_data = data.copy()
        if swap:
            text_data[[3, 7]] = text_data[[7, 3]]
        text = make_matrix(text_data, ids=tuple(f"t{i}" for i in range(10)))
        gold = {f"a{i}": f"t{i}" for i in range(10)}
        return audio, text, gold

    def test_separable_is_zero(self):
        audio, text, gold = self._fixture()
        rate = simsearch_error_rate(audio, text, gold, k_nn=4)
        assert f"{rate * 100:.2f}" == "0.00"

    def test_permuted_gold_all_wrong(self):
        audio, text, gold = self._fixture()
        permuted = {f"a{i}": f"t{(i + 1) % 10}" for i in range(10)}
        assert simsearch_error_rate(audio, text, permuted, k_nn=4) == 1.0

    def test_one_swap_misroutes_both(self):
        audio, text, gold = self._fixture(swap=True)
        rate = simsearch_error_rate(audio, text, gold, k_nn=4)
        assert f"{rate * 100:.2f}" == "20.00"

    def test_swap_agrees_with_loop_oracle(self):
        audio, text, gold = self._fixture(swap=True)
        sims = np.array([[oracle_cosine(audio.data[i], text.data[j])
                          for j in range(10)] for i in range(10)])
        errors = 0
        for i in range(10):
            margins = [oracle_margin(sims, i, j, 4) for j in range(10)]
            best = int(np.argmax(margins))
            if text.ids[best] != gold[audio.ids[i]]:
                errors += 1
        assert simsearch_error_rate(audio, text, gold, k_nn=4) == pytest.approx(errors / 10)

    def test_rejects_bad_knn_and_dims_like_the_other_searches(self, rng):
        audio, text = random_matrix(rng, 50, 8, ids=True), random_matrix(rng, 60, 8, ids=True)
        wide = random_matrix(rng, 60, 9, ids=True)
        gold = {f"r{i}": f"r{i}" for i in range(50)}

        def simsearch(a, b, k_nn):
            return simsearch_error_rate(a, b, gold, k_nn=k_nn)

        for op in (simsearch, knn, mine_pairs):
            for k_nn in (0, -1):
                with pytest.raises(MiningError, match=f"^k_nn must be >= 1, got {k_nn}$"):
                    op(audio, text, k_nn=k_nn)
            with pytest.raises(MiningError, match="^dimension mismatch: 8 vs 9$"):
                op(audio, wide, k_nn=4)

    def test_missing_gold_entry(self):
        audio, text, gold = self._fixture()
        del gold["a4"]
        with pytest.raises(MiningError, match="a4"):
            simsearch_error_rate(audio, text, gold)


def integer_cosines(src: EmbeddingMatrix, tgt: EmbeddingMatrix) -> np.ndarray:
    """The cosine table of integer-valued rows. Every dot product and squared
    norm is an exact integer, so these cosines are bit-equal to the library's
    in any summation order or BLAS blocking."""
    a, b = src.data.astype(np.float64), tgt.data.astype(np.float64)
    norms = np.outer(np.linalg.norm(a, axis=1), np.linalg.norm(b, axis=1))
    return np.clip((a @ b.T) / norms, -1.0, 1.0)


def oracle_simsearch(sims: np.ndarray, k: int):
    """Per source row, the ratio-margin argmax over every target (first index
    on ties), from the full cosine table; also the neighbor means."""
    row_mean = np.array([sum(sorted(row, reverse=True)[:k]) / k for row in sims])
    col_mean = np.array([sum(sorted(col, reverse=True)[:k]) / k for col in sims.T])
    scores = sims / ((row_mean[:, None] + col_mean[None, :]) / 2.0)
    return scores.argmax(axis=1), row_mean, col_mean


def oracle_undecided(sims: np.ndarray, k: int) -> list[int]:
    """Rows whose best margin among their top-L cosines, L = min(max(32, k),
    n_tgt), is not strictly above the bound on every target outside them."""
    _, row_mean, col_mean = oracle_simsearch(sims, k)
    width = min(max(mine._SHORTLIST, k), sims.shape[1])
    if width == sims.shape[1]:
        return []
    undecided = []
    for i, row in enumerate(sims):
        short = sorted(range(len(row)), key=lambda j: (-row[j], j))[:width]
        best = max(row[j] / ((row_mean[i] + col_mean[j]) / 2.0) for j in short)
        kth = row[short[-1]]
        c = col_mean.min() if kth >= 0.0 else col_mean.max()
        if not best > kth / ((row_mean[i] + c) / 2.0):
            undecided.append(i)
    return undecided


def with_oracle_gold(src_rows, tgt_rows, k: int = 4):
    """Matrices with ids, and the gold map that names each source row's
    brute-force prediction, so that an error rate of 0.0 checks every row."""
    src = make_matrix(src_rows, ids=tuple(f"s{i}" for i in range(len(src_rows))))
    tgt = make_matrix(tgt_rows, ids=tuple(f"t{j}" for j in range(len(tgt_rows))))
    pred, _, _ = oracle_simsearch(integer_cosines(src, tgt), k)
    gold = {sid: tgt.ids[int(j)] for sid, j in zip(src.ids, pred)}
    return src, tgt, gold


def gaussian_fixture(n_tgt: int):
    gen = np.random.default_rng(n_tgt)
    return with_oracle_gold(np.rint(gen.normal(size=(300, 16)) * 8),
                            np.rint(gen.normal(size=(n_tgt, 16)) * 8))


def clustered_fixture():
    """40 well-separated clusters of 10 targets; each source row sits in one."""
    gen = np.random.default_rng(7)
    centers = np.rint(gen.normal(size=(40, 16)) * 8)
    tgt = np.repeat(centers, 10, axis=0) + gen.integers(-1, 2, size=(400, 16))
    src = centers[gen.integers(0, 40, size=300)] + gen.integers(-1, 2, size=(300, 16))
    return with_oracle_gold(src, tgt)


def duplicate_fixture():
    """40 copies of one target among 60 others. Each other target has four
    exact copies among the sources, so its column mean is about 1.0, and the
    copies' column mean, from 20 source rows near them, is the least. A row
    near the copies has only copies in its shortlist, so its best margin
    equals the bound and it must be rechecked."""
    gen = np.random.default_rng(11)
    dup = np.rint(gen.normal(size=16) * 8)
    others = np.rint(gen.normal(size=(60, 16)) * 8)
    tgt = np.vstack([others[:30], np.tile(dup, (40, 1)), others[30:]])
    near = dup + gen.integers(-1, 2, size=(20, 16))
    src = np.vstack([np.repeat(others, 4, axis=0), near,
                     np.rint(gen.normal(size=(40, 16)) * 8)])
    return with_oracle_gold(src[gen.permutation(len(src))], tgt)


def negative_kth_fixture():
    """Every row's 32nd cosine but the near rows' is at most 0, and the last
    source row's is negative. Its 32 best cosines go to targets of column mean
    about 0.68, and four targets just outside them have column mean 1.0, so
    one of those wins its margin argmax. Only the greatest column mean bounds
    them: with the least one, the row would wrongly count as decided."""
    e = np.eye(5)
    tgt = np.array([10 * e[1] + (j % 4) * e[2] for j in range(32)] + [10 * e[0]] * 4)
    src = np.array([10 * e[0]] * 4 + [7 * e[1] + 7 * e[3]] * 4 + [[-6, -5, 0, 0, 6]])
    return with_oracle_gold(src, tgt)


class TestSimsearchShortlist:
    """The argmax comes from each row's top-L cosines wherever the bound
    decides it; gold is the brute-force prediction, so rate 0.0 checks every row."""

    @pytest.mark.parametrize("threads", [1, 8])
    @pytest.mark.parametrize("n_tgt", [mine._SHORTLIST - 1, mine._SHORTLIST,
                                       mine._SHORTLIST + 1, 400])
    def test_gaussian_matches_brute_force(self, n_tgt, threads):
        src, tgt, gold = gaussian_fixture(n_tgt)
        assert simsearch_error_rate(src, tgt, gold, k_nn=4, threads=threads) == 0.0

    @pytest.mark.parametrize("threads", [1, 8])
    @pytest.mark.parametrize("fixture", [clustered_fixture, duplicate_fixture,
                                         negative_kth_fixture])
    def test_fixture_matches_brute_force(self, fixture, threads):
        src, tgt, gold = fixture()
        assert simsearch_error_rate(src, tgt, gold, k_nn=4, threads=threads) == 0.0

    def test_negative_kth_row_wins_outside_shortlist(self):
        src, tgt, gold = negative_kth_fixture()
        sims = integer_cosines(src, tgt)
        assert sims[-1, np.argsort(-sims[-1], kind="stable")[mine._SHORTLIST - 1]] < 0.0
        assert gold[src.ids[-1]] in tgt.ids[mine._SHORTLIST:]
        assert oracle_undecided(sims, 4) == [len(src.ids) - 1]

    @pytest.mark.parametrize("fixture, rechecks", [(clustered_fixture, False),
                                                   (duplicate_fixture, True)])
    def test_second_product_sees_only_undecided_rows(self, monkeypatch, fixture, rechecks):
        src, tgt, gold = fixture()
        seen = []

        def spy(q64, *rest):
            seen.append(q64.copy())
            return cosine_block(q64, *rest)

        monkeypatch.setattr(mine, "cosine_block", spy)
        assert simsearch_error_rate(src, tgt, gold, k_nn=4) == 0.0
        sizes = np.cumsum([len(q) for q in seen])
        first = int(np.searchsorted(sizes, len(src.ids))) + 1  # calls of the first pass
        assert sizes[first - 1] == len(src.ids)
        undecided = oracle_undecided(integer_cosines(src, tgt), 4)
        assert bool(undecided) is rechecks
        second = np.vstack([np.empty((0, src.dim))] + seen[first:])
        np.testing.assert_array_equal(second, src.data[undecided].astype(np.float64))


class TestPairsIO:
    def test_round_trip(self, tmp_path):
        pairs = [
            MinedPair("s1", "t1", 1.25, src_segment=seg("A", 0.5, 2.5)),
            MinedPair("s2", "t2", 1.0, tgt_segment=seg("B", 1.0, 3.0)),
            MinedPair("s3", "t3", 0.75),
        ]
        path = tmp_path / "pairs.tsv"
        write_pairs(pairs, path)
        assert read_pairs(path) == pairs

    @pytest.mark.parametrize("pair, column", [
        (MinedPair("a\tb", "t", 1.0), "src_id"),
        (MinedPair("s", "t\nu", 1.0), "tgt_id"),
        (MinedPair("s", "t", 1.0, tgt_segment=seg("B\r", 0.0, 1.0)), "tgt_audio"),
    ])
    def test_writer_refuses_what_the_reader_cannot_read(self, tmp_path, pair, column):
        path = tmp_path / "pairs.tsv"
        path.write_bytes(b"old")
        with pytest.raises(ManifestError, match=column):
            write_pairs([MinedPair("s0", "t0", 2.0), pair], path)
        assert path.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["pairs.tsv"]

    @pytest.mark.parametrize("pair, column", [
        (MinedPair("s", "t", 1.0, src_segment=seg("", 0.0, 1.0)), "src_audio"),
        (MinedPair("s", "t", 1.0, seg("A", 0.0, 1.0), seg("", 2.0, 3.0)), "tgt_audio"),
    ])
    def test_writer_refuses_an_empty_segment_audio_id(self, tmp_path, pair, column):
        # read_pairs reads an empty audio id as no segment, losing start and end
        path = tmp_path / "pairs.tsv"
        path.write_bytes(b"old")
        with pytest.raises(ManifestError, match=f"line 3, column '{column}'"):
            write_pairs([MinedPair("s0", "t0", 2.0), pair], path)
        assert path.read_bytes() == b"old"

    def test_bad_header(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("nope\n")
        with pytest.raises(MiningError, match="header"):
            read_pairs(path)
