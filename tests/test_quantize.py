from __future__ import annotations

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from unitforge import embed, quantize
from unitforge.quantize import (
    Codebook, QuantizeError, UnitSequence,
    assign_units, ctc_collapse, dedup_units, kmeans_fit,
    read_codebook, read_unit_lines, write_codebook, write_unit_lines,
)


def oracle_assign(features: np.ndarray, centroids: np.ndarray) -> list[int]:
    """Row-at-a-time nearest centroid, float64, lowest index on ties."""
    feats = np.asarray(features, dtype=np.float64)
    cents = np.asarray(centroids, dtype=np.float64)
    labels = []
    for row in feats:
        d2 = ((row[None, :] - cents) ** 2).sum(axis=1)
        labels.append(int(d2.argmin()))
    return labels


def two_blobs(rng: np.random.Generator, per_blob: int = 50, dim: int = 4):
    left = rng.normal(size=(per_blob, dim)) - 100.0
    right = rng.normal(size=(per_blob, dim)) + 100.0
    features = np.vstack([left, right])
    labels = np.array([0] * per_blob + [1] * per_blob)
    return features, labels


class TestKMeansFit:
    def test_identical_points_k1(self):
        feats = np.tile([2.0, -3.0, 0.5], (7, 1))
        cb = kmeans_fit(feats, k=1, seed=0)
        np.testing.assert_allclose(cb.centroids[0], [2.0, -3.0, 0.5], rtol=1e-6)
        assert cb.final_inertia == pytest.approx(0.0, abs=1e-9)

    def test_k_equals_n_distinct_points(self, rng):
        feats = rng.normal(size=(6, 3)) * 10
        cb = kmeans_fit(feats, k=6, seed=1)
        assert cb.final_inertia == pytest.approx(0.0, abs=1e-6)
        # centroids are a permutation of the inputs
        matched = {int(((feats - c) ** 2).sum(axis=1).argmin()) for c in cb.centroids}
        assert matched == set(range(6))

    def test_two_blobs_recovered(self, rng):
        features, blob_labels = two_blobs(rng)
        cb = kmeans_fit(features, k=2, seed=11)
        assigned = np.array(assign_units(cb, features).units)
        # same induced partition as the generating blobs
        assert len({tuple(assigned[blob_labels == b]) for b in (0, 1)}) == 2
        for b in (0, 1):
            assert len(set(assigned[blob_labels == b])) == 1
        assert assigned[0] != assigned[-1]

    def test_inertia_non_increasing(self, rng):
        for trial in range(5):
            feats = rng.normal(size=(60, 3))
            cb = kmeans_fit(feats, k=5, seed=trial)
            hist = cb.inertia_history
            assert all(a >= b - 1e-9 * max(1.0, abs(a)) for a, b in zip(hist, hist[1:]))

    def test_deterministic(self, rng):
        feats = rng.normal(size=(40, 5))
        a = kmeans_fit(feats, k=4, seed=9)
        b = kmeans_fit(feats, k=4, seed=9)
        np.testing.assert_array_equal(a.centroids, b.centroids)
        assert a.inertia_history == b.inertia_history

    def test_thread_count_does_not_change_fit(self, rng):
        feats = rng.normal(size=(700, 6))
        a = kmeans_fit(feats, k=7, seed=2, threads=1)
        b = kmeans_fit(feats, k=7, seed=2, threads=4)
        np.testing.assert_array_equal(a.centroids, b.centroids)

    def test_insufficient_data(self):
        with pytest.raises(QuantizeError, match="insufficient"):
            kmeans_fit(np.zeros((2, 3)), k=5, seed=0)

    def test_non_finite_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            for dtype in (np.float64, np.float32):
                feats = np.zeros((4, 2), dtype=dtype)
                feats[1, 1] = bad
                with pytest.raises(QuantizeError, match="non-finite"):
                    kmeans_fit(feats, k=2, seed=0)

    def test_beyond_float32_range_rejected(self, rng):
        # rejected up front, not after a fit whose float32 codebook overflows
        with pytest.raises(QuantizeError, match="float32 range"):
            kmeans_fit(rng.normal(size=(50, 4)) * 1e40, k=3, seed=0)

    @pytest.mark.parametrize("kwargs, match", [
        ({"tol": float("nan")}, "tol"), ({"tol": -1e-6}, "tol"), ({"max_iters": -1}, "max_iters")])
    def test_bad_tol_or_max_iters_rejected_before_any_work(self, rng, monkeypatch, kwargs, match):
        def no_work(*args):
            raise AssertionError("seeding ran")

        monkeypatch.setattr(quantize, "_kmeanspp_init", no_work)
        with pytest.raises(QuantizeError, match=match):
            kmeans_fit(rng.normal(size=(20, 3)), k=2, seed=0, **kwargs)

    def test_zero_iterations_allowed(self, rng):
        cb = kmeans_fit(rng.normal(size=(20, 3)), k=2, seed=0, max_iters=0)
        assert cb.iters_run == 0 and len(cb.inertia_history) == 1

    def test_float32_extremes_accepted(self):
        feats = np.full((6, 2), float(np.finfo(np.float32).max))
        feats[::2] *= -1
        book = kmeans_fit(feats, k=2, seed=0)
        assert np.isfinite(book.centroids).all()

    def test_float32_rows_are_read_in_place(self, rng):
        # no copy of the rows: the fit's heap peak stays below their own size
        n, dim, k = 4000, 256, 16
        feats = (rng.normal(size=(n, dim))
                 + np.repeat(rng.normal(size=(k, dim)) * 3, n // k, axis=0)).astype(np.float32)
        size = n * dim * 4
        tracemalloc.start()
        try:
            book = kmeans_fit(feats, k=k, seed=0, max_iters=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert book.iters_run >= 1
        assert peak < size, f"peak {peak} bytes for {size} bytes of rows"


class TestAssignUnits:
    def test_exact_centroid_hit(self, rng):
        cents = rng.normal(size=(10, 4)).astype(np.float32)
        cb = Codebook(k=10, dim=4, centroids=cents, seed=0)
        seq = assign_units(cb, cents[7][None, :])
        assert seq.units == (7,)

    def test_tie_breaks_to_lower_index(self):
        cents = np.zeros((6, 2), dtype=np.float32)
        cents[2] = [1.0, 0.0]
        cents[5] = [-1.0, 0.0]
        cents[0] = [0.0, 9.0]
        cents[1] = [0.0, 9.0]
        cents[3] = [0.0, 9.0]
        cents[4] = [0.0, 9.0]
        cb = Codebook(k=6, dim=2, centroids=cents, seed=0)
        # origin is equidistant from centroids 2 and 5
        assert assign_units(cb, np.zeros((1, 2))).units == (2,)
        assert oracle_assign(np.zeros((1, 2)), cents) == [2]

    def test_codebook_needs_a_centroid(self):
        with pytest.raises(QuantizeError, match="k must be >= 1"):
            Codebook(k=0, dim=2, centroids=np.zeros((0, 2), dtype=np.float32), seed=0)

    def test_empty_features(self):
        cb = Codebook(k=3, dim=2, centroids=np.zeros((3, 2), dtype=np.float32), seed=0)
        seq = assign_units(cb, np.zeros((0, 2)))
        assert seq.units == () and seq.vocab_size == 3

    def test_dim_mismatch(self):
        cb = Codebook(k=3, dim=2, centroids=np.zeros((3, 2), dtype=np.float32), seed=0)
        with pytest.raises(QuantizeError, match="dim"):
            assign_units(cb, np.zeros((4, 5)))

    def test_dim_checked_before_the_empty_shortcut(self):
        cb = Codebook(k=3, dim=3, centroids=np.zeros((3, 3), dtype=np.float32), seed=0)
        with pytest.raises(QuantizeError, match="feature dim 5 != codebook dim 3"):
            assign_units(cb, np.empty((0, 5), np.float32))

    def test_matches_oracle_exactly(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 200))
            k = int(rng.integers(1, 200))
            dim = int(rng.integers(1, 8))
            cents = rng.normal(size=(k, dim)).astype(np.float32)
            feats = rng.normal(size=(n, dim)).astype(np.float32)
            cb = Codebook(k=k, dim=dim, centroids=cents, seed=0)
            assert list(assign_units(cb, feats).units) == oracle_assign(feats, cents)


    def test_heap_stays_below_a_float64_codebook(self, rng):
        # the screen is built with the codebook, and a call takes to float64
        # only the candidate centroids it gathers, never the whole codebook
        k, dim = 2000, 768
        cb = Codebook(k=k, dim=dim, centroids=rng.normal(size=(k, dim)).astype(np.float32),
                      seed=0)
        feats = cb.centroids[rng.integers(0, k, 50)] + rng.normal(size=(50, dim)) * 0.5
        feats[:5] = (cb.centroids[:5] + cb.centroids[5:10]) / 2  # open rows too
        feats = feats.astype(np.float32)
        tracemalloc.start()
        try:
            seq = assign_units(cb, feats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert list(seq.units) == oracle_assign(feats, cb.centroids)
        assert peak < k * dim * 8, f"peak {peak} bytes for a {k}x{dim} codebook"


class TestCodebookScreen:
    """The screen is built from the codebook's own centroids, never a stale set."""

    def test_replace_rebuilds_the_screen(self, rng):
        cb = Codebook(k=30, dim=16, centroids=rng.normal(size=(30, 16)).astype(np.float32),
                      seed=0)
        other = (rng.normal(size=(30, 16)) * 3).astype(np.float32)
        feats = rng.normal(size=(400, 16)).astype(np.float32) * 2
        assert oracle_assign(feats, other) != oracle_assign(feats, cb.centroids)
        swapped = dataclasses.replace(cb, centroids=other)
        assert list(assign_units(swapped, feats).units) == oracle_assign(feats, other)
        assert list(assign_units(cb, feats).units) == oracle_assign(feats, cb.centroids)

    def test_read_codebook_assigns_as_the_fitted_one(self, rng, tmp_path):
        feats = (rng.normal(size=(600, 32)) + np.repeat(rng.normal(size=(6, 32)) * 2, 100,
                                                        axis=0)).astype(np.float32)
        fitted = kmeans_fit(feats, k=12, seed=3, max_iters=4)
        write_codebook(fitted, tmp_path / "codebook.emb")
        loaded = read_codebook(tmp_path / "codebook.emb")
        frames = feats + rng.normal(size=feats.shape).astype(np.float32)
        assert assign_units(loaded, frames) == assign_units(fitted, frames)
        assert list(assign_units(loaded, frames).units) == oracle_assign(frames, fitted.centroids)

    def test_screen_is_not_in_repr(self):
        cb = Codebook(k=2, dim=1, centroids=np.array([[0.0], [1.0]], np.float32), seed=7)
        assert "_screen" not in repr(cb) and "Screen" not in repr(cb)
        assert repr(cb).startswith("Codebook(k=2, dim=1, centroids=")


def record_candidates(monkeypatch) -> list[np.ndarray]:
    """Collect the per-row candidate counts of the rows the kernel hands to
    its direct recheck (rows with one candidate never reach it)."""
    seen: list[np.ndarray] = []
    direct = quantize._direct_argmin

    def spy(x, cents, cand):
        seen.append(cand.sum(axis=1))
        return direct(x, cents, cand)

    monkeypatch.setattr(quantize, "_direct_argmin", spy)
    return seen


def oracle_dists(features: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    feats = np.asarray(features, dtype=np.float64)
    cents = np.asarray(centroids, dtype=np.float64)
    return np.array([((row[None, :] - cents) ** 2).sum(axis=1) for row in feats])


class TestExactKernel:
    """The GEMM ranking plus certificate must reproduce the brute-force oracle."""

    def offset_pairs(self, rng, dim: int, pairs: int, offset: float):
        """Centroid pairs far from the origin and frames on their midpoints."""
        base = rng.normal(size=(2 * pairs, dim)) * 0.01
        cents = (base + offset).astype(np.float32)
        c64 = cents.astype(np.float64)
        mids = (c64[0::2] + c64[1::2]) / 2  # exact: float32 sums fit in float64
        return cents, mids

    def test_midpoints_under_large_offset(self, rng, monkeypatch):
        seen = record_candidates(monkeypatch)
        cents, mids = self.offset_pairs(rng, dim=64, pairs=20, offset=1e4)
        # exact midpoints tie; nudged ones differ far below the expansion's error
        nudged = mids + rng.normal(size=mids.shape) * 1e-9
        feats = np.vstack([mids, nudged])
        cb = Codebook(k=len(cents), dim=64, centroids=cents, seed=0)
        assert list(assign_units(cb, feats).units) == oracle_assign(feats, cents)
        assert list(assign_units(cb, mids).units) == list(range(0, len(cents), 2))
        counts = np.concatenate(seen)
        assert (counts >= 2).all(), "near-tie rows must reach the direct recheck"

    def test_random_rows_mostly_single_candidate(self, rng, monkeypatch):
        seen = record_candidates(monkeypatch)
        cents = rng.normal(size=(50, 32)).astype(np.float32)
        feats = rng.normal(size=(300, 32)).astype(np.float32)
        cb = Codebook(k=50, dim=32, centroids=cents, seed=0)
        assert list(assign_units(cb, feats).units) == oracle_assign(feats, cents)
        # decided rows take no direct sum; only open ones reach the recheck
        counts = np.concatenate(seen) if seen else np.zeros(0, dtype=int)
        assert len(counts) < 0.05 * 300 and (counts >= 2).all()

    def test_every_row_open_with_duplicate_centroids(self, rng, monkeypatch):
        seen = record_candidates(monkeypatch)
        base = rng.normal(size=(20, 32)).astype(np.float32)
        cents = np.vstack([base, base[::-1]])
        feats = rng.normal(size=(300, 32)).astype(np.float32)
        cb = Codebook(k=40, dim=32, centroids=cents, seed=0)
        got = list(assign_units(cb, feats).units)
        assert got == oracle_assign(feats, cents)
        assert max(got) < 20  # the lower copy of each centroid wins
        counts = np.concatenate(seen)
        assert len(counts) == 300 and (counts >= 2).all()

    def test_duplicate_centroids_lower_index_wins(self, rng):
        cents = rng.normal(size=(12, 16)).astype(np.float32)
        cents[7] = cents[2]
        cents[11] = cents[2]
        cents[9] = cents[4]
        feats = np.vstack([cents, cents + rng.normal(size=cents.shape) * 1e-3])
        cb = Codebook(k=12, dim=16, centroids=cents, seed=0)
        got = list(assign_units(cb, feats).units)
        assert got == oracle_assign(feats, cents)
        assert got[7] == got[11] == 2 and got[9] == 4

    def test_frames_equal_to_centroids(self, rng):
        cents = (rng.normal(size=(40, 24)) * 5 + 300).astype(np.float32)
        cb = Codebook(k=40, dim=24, centroids=cents, seed=0)
        assert assign_units(cb, cents).units == tuple(range(40))
        c64 = cents.astype(np.float64)
        labels = quantize._nearest(cents, quantize._Screen.of(cents))
        dists = quantize._direct_d2(c64, c64, cols=labels)
        assert (dists == 0).all()

    def test_k_above_chunk_at_d768(self, rng):
        k, dim = 300, 768
        cents = rng.normal(size=(k, dim)).astype(np.float32)
        near = cents[rng.integers(0, k, 200)] + rng.normal(size=(200, dim)).astype(np.float32) * 0.1
        feats = np.vstack([rng.normal(size=(150, dim)), near]).astype(np.float32)
        cb = Codebook(k=k, dim=dim, centroids=cents, seed=0)
        assert list(assign_units(cb, feats).units) == oracle_assign(feats, cents)

    def test_distances_are_the_direct_sum(self, rng):
        # the fit's distances: each row to its chosen centroid, in blocks
        n = quantize._DIRECT_BLOCK + 260
        cents = rng.normal(size=(30, 768)).astype(np.float32).astype(np.float64)
        feats = (rng.normal(size=(n, 768)) + 1e3).astype(np.float32).astype(np.float64)
        labels = quantize._nearest(feats, quantize._Screen.of(cents))
        dists = quantize._direct_d2(feats, cents, cols=labels)
        expected = oracle_dists(feats, cents)[np.arange(n), labels]
        np.testing.assert_array_equal(dists, expected)

    @pytest.mark.parametrize("dtype, blocks", [(np.float64, 1), (np.float32, 1.5)])
    def test_gathered_rows_hold_one_float64_block(self, rng, dtype, blocks):
        # seeding's direct pass over chosen rows: the difference overwrites
        # the float64 rows it gathered, so no second block is allocated
        block, dim = quantize._DIRECT_BLOCK, 768
        feats = rng.normal(size=(2 * block, dim)).astype(dtype)
        c = rng.normal(size=dim)
        rows = np.arange(1, 2 * block, 2)
        tracemalloc.start()
        try:
            dists = quantize._direct_d2(feats, c, rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(dists, ((feats[rows] - c) ** 2).sum(axis=1))
        assert peak < (blocks + 0.25) * block * dim * 8

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rows_sum_the_same_in_any_caller_layout(self, rng, dtype):
        # seeding's first full pass reads the rows as the input rule left
        # them; a Fortran-ordered block would sum each row in another order
        scale = 10.0 ** rng.uniform(-6, 6, size=(300, 1))
        x = (rng.normal(size=(300, 768)) * scale).astype(dtype)
        c = rng.normal(size=768)
        expected = quantize._direct_d2(quantize._rows(x), c)
        got = quantize._direct_d2(quantize._rows(np.asfortranarray(x)), c)
        assert got.tobytes() == expected.tobytes()

    def test_non_finite_and_huge_rows_match_argmin(self, rng):
        cents = rng.normal(size=(6, 4)).astype(np.float32)
        feats = rng.normal(size=(5, 4))
        feats[1, 2] = np.nan
        feats[2, 0] = np.inf
        feats[3] = 1e200
        feats[4] = cents[3] * 1e-170  # products underflow
        cb = Codebook(k=6, dim=4, centroids=cents, seed=0)
        with np.errstate(all="ignore"):
            expected = oracle_assign(feats, cents)
            got = list(assign_units(cb, feats).units)
        assert got == expected

    def test_subnormal_scale_ties(self, rng):
        # float64 centroids as k-means holds them; squares underflow to zero
        cents = rng.normal(size=(8, 16)) * 1e-160
        feats = np.vstack([(cents[0] + cents[1]) / 2, cents[5], cents * 3])
        labels = quantize._nearest(feats, quantize._Screen.of(cents))
        assert list(labels) == oracle_assign(feats, cents)

    def test_kmeans_d768_thread_independent(self, rng):
        feats = np.vstack([rng.normal(size=(150, 768)) + shift
                           for shift in (0.0, 0.5, -0.5, 3.0)]).astype(np.float32)
        a = kmeans_fit(feats, k=12, seed=4, max_iters=6, threads=1)
        b = kmeans_fit(feats, k=12, seed=4, max_iters=6, threads=8)
        assert a.centroids.tobytes() == b.centroids.tobytes()
        assert a.inertia_history == b.inertia_history
        assert a.iters_run == b.iters_run


def oracle_kmeanspp(features: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding with a full direct float64 distance pass per seed."""
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = rng.integers(0, n)
    d2 = ((features - features[chosen[0]]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total > 0:
            chosen[i] = rng.choice(n, p=d2 / total)
        else:
            chosen[i] = rng.integers(0, n)
        d2 = np.minimum(d2, ((features - features[chosen[i]]) ** 2).sum(axis=1))
    return features[chosen].copy()


def float32_too(feats: np.ndarray) -> list[np.ndarray]:
    """``feats`` and, when its values fit in float32, its float32 rounding."""
    if np.abs(feats).max() <= np.finfo(np.float32).max:
        return [feats, feats.astype(np.float32)]
    return [feats]


class TestKMeansPlusPlusSeeding:
    """The screened seeding must draw exactly the seeds of the direct oracle,
    on float64 rows and on float32 rows taken at their float64 values."""

    def assert_seeds_match(self, feats: np.ndarray, k: int, seeds=(0, 1, 2)):
        for rows in float32_too(feats):
            for seed in seeds:
                want = oracle_kmeanspp(rows, k, np.random.default_rng(seed))
                got = quantize._kmeanspp_init(rows, k, np.random.default_rng(seed))
                assert got.dtype == np.float64
                assert np.array_equal(got, want), f"{rows.dtype} seed {seed}"

    def assert_fit_matches(self, monkeypatch, feats: np.ndarray, k: int,
                           threads=(1,), max_iters: int = 3):
        with monkeypatch.context() as m:
            m.setattr(quantize, "_kmeanspp_init", oracle_kmeanspp)
            want = kmeans_fit(feats, k=k, seed=5, max_iters=max_iters, tol=0)
        for t in threads:
            got = kmeans_fit(feats, k=k, seed=5, max_iters=max_iters, tol=0, threads=t)
            assert np.array_equal(got.centroids, want.centroids)
            assert got.inertia_history == want.inertia_history

    @pytest.mark.parametrize("scale, offset, dim", [
        (1e-2, 1e4, 64),        # the expansion cancels badly
        (1.0, 0.0, 768),
        (1e-160, 0.0, 8),       # squares underflow
        (1e-160, 0.0, 768),
        (1e148, 2e152, 768),    # past the overflow limit
    ])
    def test_screened_update_equals_direct_minimum(self, rng, scale, offset, dim):
        for rows in float32_too(rng.normal(size=(300, dim)) * scale + offset):
            feats = rows.astype(np.float64)
            xx = np.einsum("ij,ij->i", rows, rows, dtype=np.float64)
            with np.errstate(over="ignore"):
                rounded = rows.astype(np.float32)
            for c in (feats[7], feats[7] + rng.normal(size=dim) * scale * 1e-3,
                      feats.mean(axis=0)):
                with np.errstate(all="ignore"):
                    direct = ((feats - c) ** 2).sum(axis=1)
                # current distances on, and one ulp either side of, the new ones
                for d2 in (direct, np.nextafter(direct, np.inf), np.nextafter(direct, 0),
                           direct * (1 + 1e-9), np.zeros_like(direct),
                           np.full_like(direct, np.inf)):
                    want = np.minimum(d2, direct)
                    got = d2.copy()
                    quantize._lower_to_seed(rows, xx, got, c, rounded)
                    assert np.array_equal(got, want)

    def test_clustered_d768_with_near_ties(self, rng, monkeypatch):
        # speech clusters plus silence points and the midpoints of their pairs
        dim = 768
        speech = rng.standard_normal((30, dim))
        points = 3.0 * rng.standard_normal((6, dim))
        mids = (points[0::2] + points[1::2]) / 2.0
        feats = np.vstack([
            speech[rng.integers(0, 30, 300)] + rng.standard_normal((300, dim)),
            points[rng.integers(0, 6, 30)] + 1e-5 * rng.standard_normal((30, dim)),
            mids[rng.integers(0, 3, 20)] + 1e-6 * rng.standard_normal((20, dim)),
        ]).astype(np.float32).astype(np.float64)
        feats = feats[rng.permutation(len(feats))]
        self.assert_seeds_match(feats, 40)
        # the screen leaves most rows' distances to the bound alone
        direct_rows = []
        direct = quantize._direct_d2

        def spy(features, c, rows=None):
            direct_rows.append(len(features) if rows is None else len(rows))
            return direct(features, c, rows)

        with monkeypatch.context() as m:
            m.setattr(quantize, "_direct_d2", spy)
            quantize._kmeanspp_init(feats, 40, np.random.default_rng(0))
        assert sum(direct_rows[1:]) < 0.25 * 39 * len(feats)
        self.assert_fit_matches(monkeypatch, feats, 40, threads=(1, 8))

    @pytest.mark.parametrize("scale", [1e-22, 1e19])
    def test_float32_rows_whose_squares_leave_the_float32_range(self, rng, scale):
        # float32 squares of these rows' differences underflow or overflow,
        # so only float64 differences give the oracle's draws
        cents = rng.normal(size=(10, 64))
        feats = (cents[rng.integers(0, 10, 300)] + rng.normal(size=(300, 64)) * 0.1) * scale
        self.assert_seeds_match(feats, 15)

    def test_duplicate_rows_reach_uniform_draws(self, rng, monkeypatch):
        feats = np.tile(rng.normal(size=(5, 16)), (20, 1))
        # after the 5 distinct rows are drawn, all mass is zero
        self.assert_seeds_match(feats, 9)
        self.assert_fit_matches(monkeypatch, feats, 9)

    def test_rows_span_several_blocks(self, rng, monkeypatch):
        n = 2 * quantize._DIRECT_BLOCK + 517
        cents = rng.normal(size=(25, 16)) * 4
        feats = cents[rng.integers(0, 25, n)] + rng.normal(size=(n, 16))
        self.assert_seeds_match(feats, 30)
        self.assert_fit_matches(monkeypatch, feats, 30, threads=(1, 8))

    def test_rows_past_the_overflow_limit(self, rng):
        # ||x||^2 near 1e307 (coordinates near 1e152): rows whose norm
        # exceeds the limit take the direct sum; float32 centroids cannot
        # hold this scale, so only the seeds are compared
        dim = 768
        axis = rng.normal(size=dim)
        axis *= np.sqrt(1e307) / np.linalg.norm(axis)
        feats = np.vstack([axis + rng.normal(size=(150, dim)) * 1e148,
                           1.2 * axis + rng.normal(size=(50, dim)) * 1e148])
        xx = np.einsum("ij,ij->i", feats, feats)
        assert xx.max() > quantize._certificate(dim, xx.min())[2]
        self.assert_seeds_match(feats, 12)

    def test_rows_near_underflow(self, rng, monkeypatch):
        cents = rng.normal(size=(10, 8))
        feats = (cents[rng.integers(0, 10, 300)] + rng.normal(size=(300, 8)) * 0.1) * 1e-160
        self.assert_seeds_match(feats, 15)
        self.assert_fit_matches(monkeypatch, feats, 15)
        # the d * tiny floor rules out every keep, so each update skips the
        # GEMV and sends the whole matrix to the direct sum
        calls = []
        direct = quantize._direct_d2

        def spy(features, c, rows=None):
            calls.append(rows)
            return direct(features, c, rows)

        with monkeypatch.context() as m:
            m.setattr(quantize, "_direct_d2", spy)
            quantize._kmeanspp_init(feats, 15, np.random.default_rng(0))
        assert len(calls) == 15 and all(rows is None for rows in calls)


def oracle_fit(features: np.ndarray, k: int, seed: int, max_iters: int,
               tol: float) -> tuple[np.ndarray, tuple[float, ...], int, int]:
    """Lloyd iterations with brute-force nearest and ``np.add.at`` sums.

    Returns (float32 centroids, inertia history, iterations, reseeds).
    """
    n, dim = features.shape
    rows = np.arange(n)

    def nearest(cents):
        d2 = oracle_dists(features, cents)
        labels = d2.argmin(axis=1)
        return labels, d2[rows, labels]

    cents = quantize._kmeanspp_init(features, k, np.random.default_rng(seed))
    history, iters, reseeds = [], 0, 0
    for _ in range(max_iters):
        labels, d2 = nearest(cents)
        history.append(float(d2.sum()))
        iters += 1
        sums = np.zeros((k, dim))
        np.add.at(sums, labels, features)
        counts = np.bincount(labels, minlength=k)
        new = cents.copy()
        nonempty = counts > 0
        new[nonempty] = sums[nonempty] / counts[nonempty, None]
        for j in np.flatnonzero(~nonempty):
            far = int(d2.argmax())
            new[j] = features[far]
            d2[far] = -np.inf
            reseeds += 1
        movement = float(np.sqrt(((new - cents) ** 2).sum(axis=1)).max())
        cents = new
        if movement < tol:
            break
    history.append(float(nearest(cents)[1].sum()))
    return cents.astype(np.float32), tuple(history), iters, reseeds


class TestLloydUpdate:
    """The fit must equal Lloyd iterations with brute-force labels and np.add.at sums."""

    def assert_fit_matches(self, feats: np.ndarray, k: int, max_iters: int = 8,
                           tol: float = 1e-6) -> int:
        want, history, iters, reseeds = oracle_fit(feats, k, 3, max_iters, tol)
        for threads in (1, 8):
            got = kmeans_fit(feats, k=k, seed=3, max_iters=max_iters, tol=tol, threads=threads)
            assert got.centroids.tobytes() == want.tobytes(), f"threads {threads}"
            assert got.inertia_history == history
            assert got.iters_run == iters
        return reseeds

    def test_duplicate_rows_force_a_reseed(self, rng):
        feats = np.tile(rng.normal(size=(6, 8)), (50, 1))
        feats = feats[rng.permutation(len(feats))]
        assert self.assert_fit_matches(feats, 10) > 0

    def test_negative_zero_coordinates(self, rng):
        # one cluster holds -0.0 in two coordinates of every row; a sum
        # starting at +0.0 turns its centroid's coordinates into +0.0
        feats = rng.normal(size=(300, 6)) + np.repeat([[0.0] * 6, [40.0] * 6, [-40.0] * 6],
                                                      100, axis=0)
        feats[:100, 2] = -0.0
        feats[:100, 4] = -0.0
        feats = feats[rng.permutation(len(feats))]
        self.assert_fit_matches(feats, 3)
        self.assert_fit_matches(feats, 9)

    def test_rows_span_several_chunks(self, rng):
        cents = rng.normal(size=(12, 24)) * 3
        feats = cents[rng.integers(0, 12, 700)] + rng.normal(size=(700, 24))
        self.assert_fit_matches(feats, 15, max_iters=6, tol=0)


def record_direct_rows(monkeypatch) -> list[np.ndarray]:
    """Collect the row indices that seeding's screen sends to the direct sum."""
    seen: list[np.ndarray] = []
    direct = quantize._direct_d2

    def spy(features, c, rows=None):
        seen.append(np.arange(len(features)) if rows is None else rows.copy())
        return direct(features, c, rows)

    monkeypatch.setattr(quantize, "_direct_d2", spy)
    return seen


def assert_lowered(feats: np.ndarray, c: np.ndarray, d2: np.ndarray) -> None:
    """``_lower_to_seed`` must equal ``np.minimum`` with the direct distances."""
    with np.errstate(all="ignore"):
        want = np.minimum(d2, ((feats - c) ** 2).sum(axis=1))
    got = d2.copy()
    quantize._lower_to_seed(feats, np.einsum("ij,ij->i", feats, feats), got, c,
                            feats.astype(np.float32))
    assert np.array_equal(got, want)


class TestFloat32Certificate:
    """The float32 product screens; the float64 direct sum still decides."""

    def midpoint_rows(self, rng, cents: np.ndarray, rel_gaps: np.ndarray) -> np.ndarray:
        """Float64 rows off the midpoint of centroids 0 and 1, each with the
        given signed gap (d_0 - d_1) / (||x||^2 + ||c||^2)."""
        c = cents.astype(np.float64)
        v = c[1] - c[0]
        mid = (c[0] + c[1]) / 2
        scale = 2.0 * (mid @ mid)
        # d_0 - d_1 = 2 s ||v||^2 for x = mid + s v
        return mid + np.outer(rel_gaps * scale / (2.0 * (v @ v)), v)

    def test_near_ties_below_float32_resolution_reach_the_direct_sum(self, rng, monkeypatch):
        dim = 64
        cents = (rng.normal(size=(20, dim)) + 10.0).astype(np.float32)
        # relative gaps far above float64's rounding (about 1e-13 here) and
        # far below float32's (about 1e-5), of either sign
        gaps = np.exp(rng.uniform(np.log(1e-11), np.log(1e-7), 60)) * rng.choice([-1, 1], 60)
        feats = self.midpoint_rows(rng, cents, gaps)
        seen = record_candidates(monkeypatch)
        got = quantize._nearest(feats, quantize._Screen.of(cents))
        assert list(got) == oracle_assign(feats, cents)
        assert set(got) == {0, 1}
        counts = np.concatenate(seen)
        assert len(counts) == len(feats) and (counts >= 2).all()

        # seeding: current distances just under the new ones must stay,
        # just over must fall, and neither can be told apart by the bound
        feats = feats + rng.normal(size=feats.shape)
        c = cents[0].astype(np.float64)
        direct = ((feats - c) ** 2).sum(axis=1)
        d2 = direct * (1 + np.abs(gaps) * np.sign(rng.normal(size=len(gaps))))
        rows = record_direct_rows(monkeypatch)
        assert_lowered(feats, c, d2)
        assert np.array_equal(np.concatenate(rows), np.arange(len(feats)))

    def test_rounding_to_float32_flips_the_order(self, rng, monkeypatch):
        # float64 rows and centroids, as k-means holds them, so close to a
        # tie that their float32 roundings order the two centroids the other way
        dim = 64
        cents = rng.normal(size=(6, dim)) + 10.0
        gaps = rng.uniform(-1e-9, 1e-9, 400)
        feats = self.midpoint_rows(rng, cents, gaps) + rng.normal(size=(400, dim)) * 1e-9
        exact = oracle_dists(feats, cents)
        rounded = oracle_dists(feats.astype(np.float32), cents.astype(np.float32))
        flips = np.sign(exact[:, 0] - exact[:, 1]) != np.sign(rounded[:, 0] - rounded[:, 1])
        assert flips.sum() >= 40
        seen = record_candidates(monkeypatch)
        got = quantize._nearest(feats, quantize._Screen.of(cents))
        assert list(got) == oracle_assign(feats, cents)
        assert len(np.concatenate(seen)) == len(feats)
        # seeding with centroid 0 drawn before and centroid 1 now
        rows = record_direct_rows(monkeypatch)
        assert_lowered(feats, cents[1], exact[:, 0])
        assert set(np.flatnonzero(flips)) <= set(np.concatenate(rows))

    def test_squared_norms_past_the_float32_range(self, rng, monkeypatch):
        # every value fits in float32 but ||x||^2 near 1e41 does not
        dim = 768
        cents = (rng.normal(size=(8, dim)) * 1e19).astype(np.float32)
        feats = cents[rng.integers(0, 8, 60)] + rng.normal(size=(60, dim)) * 1e18
        feats = feats.astype(np.float32)
        assert np.isinf(np.einsum("ij,ij->i", feats, feats)).all()
        seen = record_candidates(monkeypatch)
        cb = Codebook(k=8, dim=dim, centroids=cents, seed=0)
        assert list(assign_units(cb, feats).units) == oracle_assign(feats, cents)
        assert (np.concatenate(seen) == 8).all()  # every row takes the direct sum
        monkeypatch.undo()
        f64 = feats.astype(np.float64)
        for c in (f64[3], f64[3] + rng.normal(size=dim) * 1e15):
            direct = ((f64 - c) ** 2).sum(axis=1)
            for d2 in (direct, np.nextafter(direct, 0), np.full_like(direct, np.inf)):
                assert_lowered(f64, c, d2)
        for seed in (0, 1):
            want = oracle_kmeanspp(f64, 6, np.random.default_rng(seed))
            got = quantize._kmeanspp_init(f64, 6, np.random.default_rng(seed))
            assert np.array_equal(got, want)
        book = kmeans_fit(feats, k=4, seed=2, max_iters=3)
        assert np.isfinite(book.centroids).all()
        # rows whose float32 ||x||^2 fits, against a centroid whose norm does
        # not: their float32 product with it overflows, yet it is the farthest
        base = np.abs(rng.normal(size=dim)) * 5e17
        rows = (base + rng.normal(size=(40, dim)) * 1e16).astype(np.float32)
        cents = np.vstack([3.2 * base, rows[:5]]).astype(np.float32)
        assert np.isfinite(np.einsum("ij,ij->i", rows, rows)).all()
        with np.errstate(over="ignore"):
            assert np.isinf(rows @ cents[0]).all()
        cb = Codebook(k=6, dim=dim, centroids=cents, seed=0)
        assert list(assign_units(cb, rows).units) == oracle_assign(rows, cents)

    def test_float64_rows_beyond_the_float32_range(self, rng):
        cents = rng.normal(size=(7, 16)).astype(np.float32)
        feats = rng.normal(size=(8, 16))
        feats[0] *= 1e39
        feats[1] *= 1e300
        feats[2, 5] = 5e38  # one coordinate past float32, the rest small
        feats[3, :2] = [-1e60, 1e60]
        feats[4] = cents[2] * 1e38  # rounds to float32 max or to inf
        feats[5] = np.float64(np.finfo(np.float32).max) * (1 + 2.0**-26)
        cb = Codebook(k=7, dim=16, centroids=cents, seed=0)
        with np.errstate(all="ignore"):
            assert list(assign_units(cb, feats).units) == oracle_assign(feats, cents)

    def test_subnormal_rows_and_tiny_rows_against_large_centroids(self, rng):
        dim = 32
        # float32-subnormal rows against centroids of their own scale, with
        # exact ties (a mirrored pair) and near-ties at a midpoint; every
        # float32 product underflows to zero
        tiny = float(np.finfo(np.float32).tiny)
        cents = (rng.normal(size=(6, dim)) * tiny * 1e-3).astype(np.float32)
        cents[1] = -cents[0]
        mids = (cents[2].astype(np.float64) + cents[3]) / 2
        feats = np.vstack([cents * 0.5, np.zeros((1, dim)),
                           mids + rng.normal(size=(20, dim)) * tiny * 1e-9]).astype(np.float32)
        cb = Codebook(k=6, dim=dim, centroids=cents, seed=0)
        assert list(assign_units(cb, feats).units) == oracle_assign(feats, cents)
        c64 = cents.astype(np.float64)
        for x in (feats.astype(np.float64), rng.normal(size=(40, dim)) * 1e-40):
            assert list(quantize._nearest(x, quantize._Screen.of(c64))) == oracle_assign(x, c64)
            assert_lowered(x, c64[2], ((x - c64[3]) ** 2).sum(axis=1))
        # tiny rows against far larger centroids: products are float32
        # subnormals (1e-42) or nothing (1e-73), and mirrored centroids have
        # equal norms, so only x.c tells them apart
        for row_scale, cent_scale in ((1e-24, 1e-18), (1e-43, 1e-30), (1e-30, 1e3)):
            big = rng.normal(size=(4, dim)) * cent_scale
            big = np.vstack([big, -big])
            x = rng.normal(size=(50, dim)) * row_scale
            assert list(quantize._nearest(x, quantize._Screen.of(big))) == oracle_assign(x, big)
            cb = Codebook(k=8, dim=dim, centroids=big.astype(np.float32), seed=0)
            xs = x.astype(np.float32)
            assert list(assign_units(cb, xs).units) == oracle_assign(xs, cb.centroids)
            assert_lowered(x, big[0], ((x - big[4]) ** 2).sum(axis=1))
            assert_lowered(x, big[4], ((x - big[0]) ** 2).sum(axis=1))

    def test_open_rows_stay_few_on_clustered_d768(self, rng, monkeypatch):
        # speech clusters plus 10% silence frames on midpoints of centroid
        # pairs: a screen that opened every row would fail the bound
        dim, k = 768, 100
        speech = rng.standard_normal((40, dim)) * 1.5
        train = speech[rng.integers(0, 40, 800)] + rng.standard_normal((800, dim))
        train = train.astype(np.float32)
        book = kmeans_fit(train, k=k, seed=1, max_iters=5, tol=0)
        c = book.centroids.astype(np.float64)
        pairs = rng.integers(0, k, size=(100, 2))
        mids = (c[pairs[:, 0]] + c[pairs[:, 1]]) / 2 + 1e-6 * rng.standard_normal((100, dim))
        frames = np.vstack([speech[rng.integers(0, 40, 900)] + rng.standard_normal((900, dim)),
                            mids]).astype(np.float32)
        seen = record_candidates(monkeypatch)
        assert list(assign_units(book, frames).units) == oracle_assign(frames, book.centroids)
        open_rows = sum(len(s) for s in seen)
        assert 0.05 * len(frames) <= open_rows <= 0.15 * len(frames)

    def test_slack_keeps_its_margin(self):
        # to first order a float32 product of rows rounded from float64 errs
        # by (d + 2) u (X + C), u = 2^-24: d from the summation, 2 from the
        # rounding of x and c; the slack keeps a factor 2 over it, and its
        # floor covers 4d float32 underflows
        u, tiny = 2.0**-24, float(np.finfo(np.float32).tiny)
        for dim in (1, 16, 768, 2**21):
            coef, floor, xx_limit = quantize._certificate(dim, 1.0)
            assert coef >= 2 * (dim + 2) * u and floor >= 4 * dim * tiny
            assert xx_limit == float(np.finfo(np.float32).max) / 8 - 1.0
        assert quantize._certificate(2**21 + 1, 1.0)[2] < 0  # past that, no screen

    def test_float32_input_equals_its_float64_copy(self, rng, monkeypatch):
        # the fit reads float32 rows in place and takes other rows as
        # float64; float32 to float64 is exact, so either way the fit is the same
        dim = 48
        clusters = rng.normal(size=(500, dim)) + np.repeat(rng.normal(size=(5, dim)) * 3, 100,
                                                           axis=0)
        # 6 distinct rows leave at least 4 of 10 clusters empty every iteration
        duplicates = np.tile(rng.normal(size=(6, dim)), (50, 1))
        # ||x||^2 near 1e41 overflows float32 though every value fits
        big = rng.normal(size=(8, 768)) * 1e19
        big_norms = big[rng.integers(0, 8, 60)] + rng.normal(size=(60, 768)) * 1e18
        # rows on midpoints of point pairs tie between the seeds drawn at them
        points = 3.0 * rng.standard_normal((6, dim))
        mids = (points[0::2] + points[1::2]) / 2.0
        ties = np.vstack([points[rng.integers(0, 6, 60)] + 1e-5 * rng.standard_normal((60, dim)),
                          mids[rng.integers(0, 3, 40)] + 1e-6 * rng.standard_normal((40, dim))])
        seen = record_candidates(monkeypatch)
        for feats, k in ((clusters, 9), (duplicates, 10), (big_norms, 4), (ties, 6)):
            seen.clear()
            f32 = feats.astype(np.float32)
            a = kmeans_fit(f32, k=k, seed=4, max_iters=4, tol=0)
            for other in (f32.astype(np.float64), np.asfortranarray(f32)):
                b = kmeans_fit(other, k=k, seed=4, max_iters=4, tol=0)
                assert a.centroids.tobytes() == b.centroids.tobytes()
                assert a.inertia_history == b.inertia_history
                assert a.iters_run == b.iters_run
        assert seen, "no tie row reached the direct recheck"
        big32 = big_norms.astype(np.float32)
        assert np.isinf(np.einsum("ij,ij->i", big32, big32)).all()


class TestUnitOps:
    def test_dedup_example(self):
        seq = UnitSequence(vocab_size=10, units=(5, 5, 2, 2, 2, 9))
        assert dedup_units(seq).units == (5, 2, 9)

    def test_dedup_empty(self):
        assert dedup_units(UnitSequence(vocab_size=4)).units == ()

    def test_dedup_equals_collapsing_runs_on_seeded_sequences(self, rng):
        def collapse_runs(units):
            out = []
            for u in units:
                if not out or out[-1] != u:
                    out.append(u)
            return out

        cases = [(), (4,), (4,) * 500, (0, 0, 9, 9, 9, 0)]
        for _ in range(50):
            runs = rng.integers(1, 40, size=int(rng.integers(1, 30)))
            cases.append(tuple(np.repeat(rng.integers(0, 3, size=len(runs)), runs).tolist()))
        for units in cases:
            seq = UnitSequence(vocab_size=10, units=units)
            assert list(dedup_units(seq).units) == collapse_runs(units)
            assert dedup_units(seq).vocab_size == 10

    def test_dedup_no_adjacent_repeats_untouched(self):
        seq = UnitSequence(vocab_size=4, units=(1, 2, 1))
        assert dedup_units(seq).units == (1, 2, 1)

    def test_out_of_range_names_first_bad_unit(self):
        for units, bad in [((1, 9, -1, 7), 9), ((2, -1, 9), -1), ((5,), 5),
                           ((0, 4, 4, 12), 12), (np.array([3, 0, 7]), 7)]:
            with pytest.raises(QuantizeError) as info:
                UnitSequence(vocab_size=5, units=units)
            assert str(info.value) == f"unit {bad} out of range [0, 5)"

    def test_units_become_python_ints(self):
        for units in (np.array([4, 0, 3], dtype=np.int64), ["4", " 0", "3"], (4.0, 0, True + 2)):
            seq = UnitSequence(vocab_size=5, units=units)
            assert seq.units == (4, 0, 3) and all(type(u) is int for u in seq.units)
        cb = Codebook(k=3, dim=1, centroids=np.array([[0.0], [1.0], [2.0]], np.float32), seed=0)
        labels = assign_units(cb, np.array([[2.1], [0.2], [0.9]])).units
        assert labels == (2, 0, 1) and all(type(u) is int for u in labels)

    def test_unit_lines_round_trip_and_parse_errors(self, tmp_path):
        path = tmp_path / "units.txt"
        seqs = [UnitSequence(vocab_size=12, units=(11, 0, 3)), UnitSequence(vocab_size=12),
                UnitSequence(vocab_size=12, units=(7,))]
        write_unit_lines(seqs, path)
        assert path.read_text(encoding="utf-8") == "11 0 3\n\n7\n"
        assert read_unit_lines(path) == seqs
        path.write_text("1 2\n3 x 4\n", encoding="utf-8")
        with pytest.raises(QuantizeError) as info:
            read_unit_lines(path)
        assert str(info.value) == f"{path}:2: invalid literal for int() with base 10: 'x'"
        path.write_text("1 2\n3 -4\n", encoding="utf-8")
        with pytest.raises(QuantizeError, match=r"unit -4 out of range \[0, 4\)"):
            read_unit_lines(path)

    @pytest.mark.parametrize("text, vocab_size, message", [
        ("1 2\n3 -4\n", None, "2: unit -4 out of range [0, 4)"),
        ("1 2\n\n3\n", 3, "3: unit 3 out of range [0, 3)"),
        ("5\n1 1.5\n", 9, "2: invalid literal for int() with base 10: '1.5'"),
        ("7 7\n\n2 0x1\n", None, "3: invalid literal for int() with base 10: '0x1'"),
    ])
    def test_unit_line_errors_name_path_and_line(self, tmp_path, text, vocab_size, message):
        path = tmp_path / "units.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(QuantizeError) as info:
            read_unit_lines(path, vocab_size)
        assert str(info.value) == f"{path}:{message}"

    def test_non_integral_units_refused(self):
        for units, bad in [((1.9, np.float64(2.7)), 1.9), ((2, np.float64(2.7)), np.float64(2.7)),
                           ((0, 4.5), 4.5), (np.array([1.0, 3.25]), np.float64(3.25))]:
            with pytest.raises(ValueError) as info:
                UnitSequence(vocab_size=5, units=units)
            assert str(info.value) == f"non-integral unit id {bad!r}"
        with pytest.raises(ValueError, match="NaN"):
            UnitSequence(vocab_size=5, units=(float("nan"),))
        # 0.5 no longer truncates to the blank and vanishes
        with pytest.raises(ValueError, match="non-integral unit id 1.2"):
            ctc_collapse([1.2, 1.9, 0.5, 2.0], blank=0)
        assert ctc_collapse([1.0, 1, 0.0, np.float32(2.0)], blank=0).units == (1, 2)

    def test_ctc_canonical(self):
        assert ctc_collapse([3, 3, 0, 4, 4, 0, 0], blank=0).units == (3, 4)

    def test_ctc_all_blank(self):
        assert ctc_collapse([0, 0, 0], blank=0).units == ()

    def test_ctc_blank_separates_repeats(self):
        assert ctc_collapse([0, 3, 0, 3, 0], blank=0).units == (3, 3)

    def test_ctc_blank_out_of_range(self):
        with pytest.raises(QuantizeError):
            ctc_collapse([1, 2], blank=9, vocab_size=5)

    @given(st.lists(st.integers(min_value=0, max_value=9), max_size=40))
    def test_dedup_idempotent(self, units):
        seq = UnitSequence(vocab_size=10, units=tuple(units))
        once = dedup_units(seq)
        assert dedup_units(once) == once
        assert all(a != b for a, b in zip(once.units, once.units[1:]))
        assert once.vocab_size == seq.vocab_size

    @given(st.lists(st.integers(min_value=0, max_value=9), max_size=40),
           st.integers(min_value=0, max_value=9))
    def test_ctc_equals_dedup_then_blank_removal(self, labels, blank):
        collapsed = ctc_collapse(labels, blank=blank, vocab_size=10)
        via_dedup = tuple(
            u for u in dedup_units(UnitSequence(vocab_size=10, units=tuple(labels))).units
            if u != blank)
        assert collapsed.units == via_dedup


def oracle_check(units, vocab_size):
    """The range check as one loop over the converted units."""
    units = tuple(int(u) for u in units)
    for u in units:
        if not 0 <= u < vocab_size:
            raise QuantizeError(f"unit {u} out of range [0, {vocab_size})")
    return units


def oracle_dedup(units, vocab_size):
    """Run collapse as a loop that keeps each unit unlike its predecessor."""
    out = []
    prev = None
    for u in oracle_check(units, vocab_size):
        if u != prev:
            out.append(u)
            prev = u
    return tuple(out)


def oracle_ctc(frame_labels, blank, vocab_size=None):
    """CTC collapse as range check, run collapse, then blank removal."""
    labels = tuple(int(u) for u in frame_labels)
    if vocab_size is None:
        vocab_size = max(max(labels, default=0), blank) + 1
    if not 0 <= blank < vocab_size:
        raise QuantizeError(f"blank {blank} out of range [0, {vocab_size})")
    return tuple(u for u in oracle_dedup(labels, vocab_size) if u != blank), vocab_size


def outcome(fn, *args, **kwargs):
    """``fn``'s result, or the type and text of the error it raised."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return type(exc), str(exc)


def unit_cases(seed: int, count: int) -> list[tuple[int, ...]]:
    """Seeded label sequences: runs of ids in [-2, 12), blanks (0 or 9) at
    either end, and the empty, all-blank and single-id edge cases."""
    rng = np.random.default_rng(seed)
    cases = [(), (0,), (9,), (0,) * 7, (9,) * 5, (0, 0, 3, 3, 0), (9, 4, 4, 9, 9), (-1,),
             (0, -2, 0), (10,), (3, 3, 12, 12, 3)]
    for _ in range(count):
        runs = rng.integers(1, 6, size=int(rng.integers(1, 25)))
        pool = (-2, -1, 10, 11) if rng.random() < 0.2 else ()
        values = rng.choice((0, 9, *range(1, 9), *pool), size=len(runs))
        units = np.repeat(values, runs).tolist()
        for end in (0, -1):
            if rng.random() < 0.5:
                units.insert(len(units) if end else 0, int(rng.choice((0, 9))))
        cases.append(tuple(units))
    return cases


class TestUnitOpsAgainstLoops:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_dedup_matches_loop(self, seed):
        def dedup(units, vocab_size):
            out = dedup_units(UnitSequence(vocab_size, units))
            return out.units, out.vocab_size

        for units in unit_cases(seed, 200):
            for vocab_size in (10, 12, 1):
                want = outcome(lambda: (oracle_dedup(units, vocab_size), vocab_size))
                assert outcome(dedup, units, vocab_size) == want, units

    @pytest.mark.parametrize("seed", [4, 5, 6])
    def test_ctc_matches_loop(self, seed):
        def ctc(units, blank, vocab_size):
            out = ctc_collapse(units, blank, vocab_size)
            return out.units, out.vocab_size

        for units in unit_cases(seed, 200):
            for blank in (0, 9, 11, -1):
                for vocab_size in (None, 10, 12):
                    want = outcome(oracle_ctc, units, blank, vocab_size)
                    assert outcome(ctc, units, blank, vocab_size) == want, (units, blank)

    def test_one_unit_sequence_per_call(self, monkeypatch):
        built = []
        post_init = UnitSequence.__post_init__

        def spy(seq):
            built.append(seq)
            post_init(seq)

        seq = UnitSequence(vocab_size=10, units=(0, 0, 3, 3, 0, 5, 5, 9))
        empty = UnitSequence(vocab_size=10)
        monkeypatch.setattr(UnitSequence, "__post_init__", spy)
        for call in (lambda: dedup_units(seq), lambda: dedup_units(empty),
                     lambda: ctc_collapse(seq.units, blank=0),
                     lambda: ctc_collapse(seq.units, blank=9, vocab_size=10),
                     lambda: ctc_collapse([], blank=0)):
            built.clear()
            call()
            assert len(built) == 1


class TestCodebookIO:
    def test_round_trip(self, rng, tmp_path):
        feats = rng.normal(size=(30, 3))
        cb = kmeans_fit(feats, k=4, seed=5)
        path = tmp_path / "codebook.emb"
        write_codebook(cb, path)
        loaded = read_codebook(path)
        np.testing.assert_array_equal(loaded.centroids, cb.centroids)
        assert loaded.k == 4 and loaded.dim == 3 and loaded.seed == 5
        assert loaded.iters_run == cb.iters_run
        assert loaded.final_inertia == pytest.approx(cb.final_inertia)

    def test_empty_sidecar_names_it(self, rng, tmp_path):
        path = tmp_path / "codebook.emb"
        write_codebook(kmeans_fit(rng.normal(size=(30, 3)), k=4, seed=5), path)
        (tmp_path / "codebook.emb.meta.jsonl").write_text("")
        with pytest.raises(QuantizeError, match=r"codebook\.emb\.meta\.jsonl is empty"):
            read_codebook(path)

    @pytest.mark.parametrize("first_line", ["[]", "3", '"x"', "null"])
    def test_sidecar_not_an_object_names_it(self, rng, tmp_path, first_line):
        path = tmp_path / "codebook.emb"
        write_codebook(kmeans_fit(rng.normal(size=(30, 3)), k=4, seed=5), path)
        (tmp_path / "codebook.emb.meta.jsonl").write_text(first_line + "\n")
        with pytest.raises(QuantizeError, match=r"codebook\.emb\.meta\.jsonl does not hold a JSON object"):
            read_codebook(path)

    @pytest.mark.parametrize("first_line", ["{", "{'k': 4}", "k=4", "{\"k\": 4,}"])
    def test_sidecar_not_json_names_it(self, rng, tmp_path, first_line):
        path = tmp_path / "codebook.emb"
        write_codebook(kmeans_fit(rng.normal(size=(30, 3)), k=4, seed=5), path)
        (tmp_path / "codebook.emb.meta.jsonl").write_text(first_line + "\n")
        with pytest.raises(QuantizeError) as info:
            read_codebook(path)
        assert str(info.value) == (
            f"codebook sidecar {path}.meta.jsonl does not hold a JSON object")

    @pytest.mark.parametrize("key, text", [
        ("seed", "null"), ("seed", "1e400"), ("seed", "1.7"), ("seed", "true"), ("seed", '"7"'),
        ("iters_run", '"many"'), ("iters_run", "-1"), ("iters_run", "2.0"),
        ("final_inertia", "[1]"), ("final_inertia", "NaN"), ("final_inertia", "1e400"),
        ("final_inertia", "false"), ("final_inertia", "1" + "0" * 400),
    ])
    def test_sidecar_field_types_name_file_and_key(self, rng, tmp_path, key, text):
        path = tmp_path / "codebook.emb"
        write_codebook(kmeans_fit(rng.normal(size=(30, 3)), k=4, seed=5), path)
        sidecar = tmp_path / "codebook.emb.meta.jsonl"
        meta = json.loads(sidecar.read_text())
        meta[key] = "SENTINEL"
        sidecar.write_text(json.dumps(meta).replace('"SENTINEL"', text) + "\n")
        with pytest.raises(QuantizeError, match=rf"codebook\.emb\.meta\.jsonl: '{key}' must be"):
            read_codebook(path)

    @pytest.mark.parametrize("key, value", [("iters_run", None), ("final_inertia", None),
                                            ("final_inertia", 3), ("iters_run", 0)])
    def test_sidecar_null_and_integer_fields_accepted(self, rng, tmp_path, key, value):
        path = tmp_path / "codebook.emb"
        write_codebook(kmeans_fit(rng.normal(size=(30, 3)), k=4, seed=5), path)
        sidecar = tmp_path / "codebook.emb.meta.jsonl"
        meta = json.loads(sidecar.read_text())
        meta[key] = value
        sidecar.write_text(json.dumps(meta) + "\n")
        loaded = read_codebook(path)
        assert loaded.seed == 5 and getattr(loaded, key) == value

    def test_zero_row_codebook_rejected(self, tmp_path):
        path = tmp_path / "codebook.emb"
        embed.write_embeddings(embed.EmbeddingMatrix(data=np.zeros((0, 3), np.float32)), path)
        with pytest.raises(QuantizeError, match="k must be >= 1"):
            read_codebook(path)
