"""Embedding storage and similarity kernels.

Matrices are float32 in memory and on disk; dot products and norms
accumulate in float64 so that scores are stable across chunked or
parallel execution.

On-disk format (``EMB1``): magic bytes ``EMB1``, little-endian u32 row
count, u32 dimension, then rows*dim IEEE-754 binary32 values, row-major.
Row ids, when present, live in a sidecar text file at ``<path>.ids``,
one id per line; writing a matrix without ids removes the sidecar.
Round-trips are bit-exact.
"""

from __future__ import annotations

import contextlib
import os
import struct
from dataclasses import dataclass
from pathlib import Path
import numpy as np

from .fileio import join_lines, numbered, write_file

EMB1_MAGIC = b"EMB1"
_BLOCK = 256  # rows per float64 block in l2_normalize and row_norms


class EmbeddingError(ValueError):
    pass


class ZeroVectorError(EmbeddingError):
    """Cosine similarity is undefined for a zero vector."""


@dataclass(frozen=True)
class EmbeddingMatrix:
    """Dense row-major matrix of sentence/utterance embeddings."""

    data: np.ndarray
    ids: tuple[str, ...] | None = None

    def __post_init__(self):
        data = np.ascontiguousarray(self.data, dtype=np.float32)
        if data.ndim != 2:
            raise EmbeddingError(f"embedding data must be 2-D, got shape {data.shape}")
        if not np.isfinite(data).all():
            raise EmbeddingError("embedding data contains non-finite values")
        object.__setattr__(self, "data", data)
        if self.ids is not None:
            ids = tuple(self.ids)
            if len(ids) != data.shape[0]:
                raise EmbeddingError(f"{len(ids)} ids for {data.shape[0]} rows")
            if len(set(ids)) != len(ids):
                raise EmbeddingError("embedding ids must be pairwise distinct")
            object.__setattr__(self, "ids", ids)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    def row_id(self, index: int) -> str:
        return self.ids[index] if self.ids is not None else str(index)


def write_embeddings(matrix: EmbeddingMatrix, path: str | Path) -> None:
    """Write ``path`` in EMB1; the ``.ids`` sidecar is written, or removed
    when the matrix has no ids, so a reader never pairs it with old ids."""
    ids_path = f"{path}.ids"
    # checked and encoded first, so a bad id fails before either file changes
    encoded_ids = None
    if matrix.ids is not None:
        encoded_ids = join_lines(matrix.ids, EmbeddingError).encode("utf-8")
    write_file(path, EMB1_MAGIC + struct.pack("<II", matrix.rows, matrix.dim),
               matrix.data.astype("<f4", copy=False))
    if encoded_ids is None:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(ids_path)
    else:
        write_file(ids_path, encoded_ids)


def read_embeddings(path: str | Path) -> EmbeddingMatrix:
    path = Path(path)
    with open(path, "rb") as fh:
        header = fh.read(12)
        if header[:4] != EMB1_MAGIC:
            raise EmbeddingError(f"{path}: not an EMB1 file (bad magic)")
        if len(header) < 12:
            raise EmbeddingError(f"{path}: truncated EMB1 header")
        rows, dim = struct.unpack("<II", header[4:])
        expected = 12 + rows * dim * 4
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise EmbeddingError(f"{path}: expected {expected} bytes for {rows}x{dim}, got {size}")
        # the payload is read straight into the array: one copy, no bytes object
        data = np.empty((rows, dim), dtype="<f4")
        got = 12 + fh.readinto(data)
        if got != expected:  # the file shrank after fstat
            raise EmbeddingError(f"{path}: expected {expected} bytes for {rows}x{dim}, got {got}")

    ids = None
    ids_path = f"{path}.ids"
    if os.path.exists(ids_path):
        seen: dict[str, None] = {}
        with numbered(ids_path, EmbeddingError) as lines:
            for row_id in lines:
                if row_id in seen:
                    raise EmbeddingError(f"repeated id {row_id!r}")
                seen[row_id] = None
        ids = tuple(seen)
    return EmbeddingMatrix(data=data, ids=ids)


def max_pool(frames: np.ndarray) -> np.ndarray:
    """Elementwise maximum over the rows of a t x dim frame matrix."""
    frames = np.asarray(frames)
    if frames.ndim != 2 or frames.shape[0] == 0:
        raise EmbeddingError("max_pool needs at least one frame row")
    return frames.max(axis=0)


def l2_normalize(matrix: EmbeddingMatrix) -> tuple[EmbeddingMatrix, int]:
    """Scale each row to unit L2 norm.

    Zero rows are passed through unchanged; their count is returned so
    callers can surface the data bug where it matters (similarity time).
    Rows are converted to float64 once, one fixed-size block at a time,
    so working memory stays a block beyond the float32 output.
    """
    data = matrix.data
    normalized = np.empty_like(data)
    zero_rows = 0
    for start in range(0, data.shape[0], _BLOCK):
        rows = data[start:start + _BLOCK].astype(np.float64)
        norms = np.linalg.norm(rows, axis=1)
        zero = norms == 0.0
        zero_rows += int(np.count_nonzero(zero))
        rows /= np.where(zero, 1.0, norms)[:, None]
        normalized[start:start + _BLOCK] = rows
    return EmbeddingMatrix(data=normalized, ids=matrix.ids), zero_rows


def row_norms(data: np.ndarray) -> np.ndarray:
    """L2 norms of the rows in float64, taken one block of rows at a time, so no
    float64 copy of the whole matrix is made; a zero row raises ZeroVectorError."""
    norms = np.empty(len(data))
    for start in range(0, len(data), _BLOCK):
        block = np.asarray(data[start:start + _BLOCK], dtype=np.float64)
        norms[start:start + _BLOCK] = np.linalg.norm(block, axis=1)
    if not norms.all():
        raise ZeroVectorError(f"zero embedding row {int(np.argmin(norms))}; cosine undefined")
    return norms


def cosine_block(q64: np.ndarray, q_norms: np.ndarray,
                 d64: np.ndarray, d_norms: np.ndarray) -> np.ndarray:
    """clip((q·dᵀ) / outer(‖q‖, ‖d‖), -1, 1) over float64 rows and their ``row_norms``."""
    sims = q64 @ d64.T
    sims /= np.outer(q_norms, d_norms)
    return np.clip(sims, -1.0, 1.0, out=sims)

