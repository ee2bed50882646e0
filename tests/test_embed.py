from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import make_matrix
from unitforge.embed import (
    EmbeddingError, EmbeddingMatrix, ZeroVectorError,
    cosine_block, l2_normalize, max_pool,
    read_embeddings, row_norms, write_embeddings,
)


def cosine(a, b) -> float:
    """The cosine of two vectors through the kernel: ``cosine_block`` of two rows."""
    q, d = (np.reshape(np.asarray(v, dtype=np.float64), (1, -1)) for v in (a, b))
    return float(cosine_block(q, row_norms(q), d, row_norms(d))[0, 0])


class TestMatrix:
    def test_rejects_non_finite(self):
        with pytest.raises(EmbeddingError):
            make_matrix([[1.0, float("inf")]])

    def test_rejects_bad_ids(self):
        with pytest.raises(EmbeddingError):
            make_matrix([[1.0], [2.0]], ids=("a",))
        with pytest.raises(EmbeddingError):
            make_matrix([[1.0], [2.0]], ids=("a", "a"))

    def test_row_id_fallback(self):
        m = make_matrix([[1.0], [2.0]])
        assert m.row_id(1) == "1"


class TestEmb1Format:
    def test_bit_exact_round_trip(self, rng, tmp_path):
        data = rng.normal(size=(17, 5)).astype(np.float32)
        m = EmbeddingMatrix(data=data, ids=tuple(f"row-{i}" for i in range(17)))
        path = tmp_path / "x.emb"
        write_embeddings(m, path)
        loaded = read_embeddings(path)
        assert loaded.data.tobytes() == data.tobytes()
        assert loaded.ids == m.ids

    def test_header_layout(self, tmp_path):
        path = tmp_path / "x.emb"
        write_embeddings(make_matrix([[1.0, 2.0]]), path)
        blob = path.read_bytes()
        assert blob[:4] == b"EMB1"
        assert blob[4:12] == (1).to_bytes(4, "little") + (2).to_bytes(4, "little")
        assert len(blob) == 12 + 8

    def test_writing_without_ids_removes_stale_sidecar(self, tmp_path):
        path = tmp_path / "x.emb"
        write_embeddings(make_matrix([[1.0], [2.0]], ids=("a", "b")), path)
        write_embeddings(make_matrix([[3.0], [4.0]]), path)
        assert read_embeddings(path).ids is None
        # with a different row count the stale ids made the read fail
        write_embeddings(make_matrix([[1.0], [2.0]], ids=("a", "b")), path)
        write_embeddings(make_matrix([[5.0]]), path)
        assert read_embeddings(path).data.tolist() == [[5.0]]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.emb"]

    @pytest.mark.parametrize("bad", ["a\nb", "a\rb", "a\r\n"])
    def test_line_break_in_id_rejected_before_any_write(self, tmp_path, bad):
        path = tmp_path / "x.emb"
        write_embeddings(make_matrix([[1.0], [2.0]], ids=("p", "q")), path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with pytest.raises(EmbeddingError, match="line break"):
            write_embeddings(make_matrix([[3.0], [4.0]], ids=(bad, "c")), path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_read_holds_one_copy_of_the_payload(self, rng, tmp_path):
        m = make_matrix(rng.normal(size=(2000, 256)))
        write_embeddings(m, tmp_path / "x.emb")
        tracemalloc.start()
        try:
            loaded = read_embeddings(tmp_path / "x.emb")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded.data.tobytes() == m.data.tobytes()
        assert peak < 1.5 * m.data.nbytes

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "x.emb"
        path.write_bytes(b"EMB1" + bytes(7))
        with pytest.raises(EmbeddingError, match="truncated EMB1 header"):
            read_embeddings(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.emb"
        path.write_bytes(b"NOPE" + bytes(8))
        with pytest.raises(EmbeddingError, match="magic"):
            read_embeddings(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "x.emb"
        header = b"EMB1" + (2).to_bytes(4, "little") + (2).to_bytes(4, "little")
        for payload, size in ((bytes(4), 16), (bytes(20), 32)):
            path.write_bytes(header + payload)
            with pytest.raises(EmbeddingError, match=f"expected 28 bytes for 2x2, got {size}"):
                read_embeddings(path)


class TestMaxPool:
    def test_single_frame_identity(self):
        frame = np.array([[1.5, -2.0, 0.0]], dtype=np.float32)
        np.testing.assert_array_equal(max_pool(frame), frame[0])

    def test_elementwise_max(self):
        frames = np.array([[1.0, 5.0], [3.0, 2.0]])
        np.testing.assert_array_equal(max_pool(frames), [3.0, 5.0])

    def test_empty_rejected(self):
        with pytest.raises(EmbeddingError):
            max_pool(np.zeros((0, 3)))

    @given(arrays(np.float64, (4, 3), elements=st.floats(-100, 100)))
    def test_dominates_every_row(self, frames):
        pooled = max_pool(frames)
        assert (pooled[None, :] >= frames).all()
        np.testing.assert_array_equal(max_pool(frames[::-1]), pooled)


class TestNormalize:
    def test_three_four_five(self):
        normalized, warnings = l2_normalize(make_matrix([[3.0, 4.0]]))
        np.testing.assert_allclose(normalized.data[0], [0.6, 0.8], atol=1e-7)
        assert warnings == 0

    def test_unit_row_unchanged(self):
        normalized, _ = l2_normalize(make_matrix([[0.0, 1.0]]))
        np.testing.assert_allclose(normalized.data[0], [0.0, 1.0], atol=1e-7)

    def test_zero_row_flagged(self):
        normalized, warnings = l2_normalize(make_matrix([[0.0, 0.0], [1.0, 0.0]]))
        np.testing.assert_array_equal(normalized.data[0], [0.0, 0.0])
        assert warnings == 1

    def test_bytes_match_whole_matrix_formula(self, rng):
        # 600 rows span three blocks; zero rows sit in two of them
        data = rng.normal(scale=3.0, size=(600, 33)).astype(np.float32)
        data[[0, 300, 301]] = 0.0
        normalized, zero_rows = l2_normalize(make_matrix(data))
        norms = np.linalg.norm(data.astype(np.float64), axis=1)
        want = (data.astype(np.float64) / np.where(norms == 0.0, 1.0, norms)[:, None])
        assert normalized.data.tobytes() == want.astype(np.float32).tobytes()
        assert zero_rows == 3

    def test_traced_peak_below_one_and_a_half_float64_copies(self, rng):
        matrix = make_matrix(rng.normal(size=(2000, 256)))
        tracemalloc.start()
        try:
            l2_normalize(matrix)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * matrix.data.size * 8

    def test_cosine_equals_dot_after_normalize(self, rng):
        m = make_matrix(rng.normal(size=(20, 6)))
        normalized, _ = l2_normalize(m)
        for i in range(0, 20, 3):
            for j in range(1, 20, 4):
                dot = float(np.dot(normalized.data[i].astype(np.float64),
                                   normalized.data[j].astype(np.float64)))
                assert abs(cosine(m.data[i], m.data[j]) - dot) < 1e-6


class TestCosine:
    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)

    def test_scale_invariance_exact_double(self):
        a = np.array([0.3, -1.2, 5.0])
        assert cosine(a, 2 * a) == pytest.approx(1.0)

    def test_hand_value(self):
        # dot 1 over sqrt(2) * sqrt(2)
        assert cosine([1.0, 1.0, 0.0], [1.0, 0.0, 1.0]) == pytest.approx(0.5)

    def test_zero_vector_error(self):
        with pytest.raises(ZeroVectorError):
            cosine([0.0, 0.0], [1.0, 0.0])

    @given(arrays(np.float64, (3,), elements=st.floats(-50, 50)),
           arrays(np.float64, (3,), elements=st.floats(-50, 50)),
           st.floats(min_value=0.01, max_value=100))
    def test_symmetry_and_positive_scaling(self, a, b, alpha):
        if np.linalg.norm(a) < 1e-6 or np.linalg.norm(b) < 1e-6:
            return
        assert cosine(a, b) == pytest.approx(cosine(b, a), abs=1e-12)
        assert cosine(alpha * a, b) == pytest.approx(cosine(a, b), abs=1e-9)

    def test_clamped_to_unit_interval(self, rng):
        for _ in range(50):
            a = rng.normal(size=4)
            assert -1.0 <= cosine(a, rng.normal(size=4)) <= 1.0


class TestRowNorms:
    @pytest.mark.parametrize("rows, dim", [(1, 1), (255, 3), (257, 8), (513, 33), (600, 1024)])
    def test_blocks_equal_the_whole_matrix_norms(self, rng, rows, dim):
        data = rng.normal(size=(rows, dim)).astype(np.float32)
        whole = np.linalg.norm(data.astype(np.float64), axis=1)
        np.testing.assert_array_equal(row_norms(data), whole)
        np.testing.assert_array_equal(row_norms(data.astype(np.float64)), whole)

    def test_no_float64_copy_of_the_matrix(self, rng):
        data = rng.normal(size=(4000, 256)).astype(np.float32)
        tracemalloc.start()
        try:
            row_norms(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < data.nbytes // 2  # a float64 copy would be 2 * data.nbytes

    def test_first_zero_row_named(self):
        data = np.ones((600, 3), dtype=np.float32)
        data[[300, 500]] = 0.0
        with pytest.raises(ZeroVectorError, match="^zero embedding row 300; cosine undefined$"):
            row_norms(data)
