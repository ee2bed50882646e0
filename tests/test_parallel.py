from __future__ import annotations

import pytest

from unitforge import parallel
from unitforge.parallel import map_chunks


class RecordingPool:
    """Stands in for ThreadPoolExecutor: records max_workers, runs inline."""

    created: list[int] = []

    def __init__(self, max_workers: int):
        RecordingPool.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.fixture
def pool(monkeypatch):
    RecordingPool.created = []
    monkeypatch.setattr(parallel, "ThreadPoolExecutor", RecordingPool)
    return RecordingPool.created


def square_all(threads: int, chunks: int) -> list[int]:
    return map_chunks(lambda c: c * c, list(range(chunks)), threads)


class TestMapChunks:
    def test_workers_clamped_to_cpu_count(self, pool, monkeypatch):
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 4)
        assert square_all(threads=64, chunks=10) == [c * c for c in range(10)]
        assert pool == [4]

    def test_workers_clamped_to_chunk_count(self, pool, monkeypatch):
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 16)
        square_all(threads=8, chunks=3)
        assert pool == [3]

    @pytest.mark.parametrize("cpus", [1, None])
    def test_single_or_unknown_cpu_runs_inline(self, pool, monkeypatch, cpus):
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: cpus)
        assert square_all(threads=8, chunks=5) == [c * c for c in range(5)]
        assert pool == []

    def test_cpu_count_unread_when_one_worker_could_run(self, pool, monkeypatch):
        def cpu_count():
            raise AssertionError("os.cpu_count read for a one-worker call")

        monkeypatch.setattr(parallel.os, "cpu_count", cpu_count)
        assert square_all(threads=1, chunks=5) == [c * c for c in range(5)]
        assert square_all(threads=8, chunks=1) == [0]
        assert pool == []
